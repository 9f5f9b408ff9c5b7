//! System-level benchmarks: wall-clock cost of regenerating the paper's
//! figures at a reduced scale (the experiment binaries run the full
//! 5000-arrival versions). One section per paper artefact.
//!
//! A plain `std::time::Instant` harness (`hetero_bench::perf`) — criterion
//! is unavailable offline. Run with `cargo bench --bench systems`.

use energy_model::EnergyModel;
use hetero_bench::perf::bench_report;
use hetero_core::{
    Architecture, BaseSystem, BestCorePredictor, EnergyCentricSystem, OptimalSystem,
    PredictorConfig, ProposedSystem, SuiteOracle,
};
use multicore_sim::Simulator;
use workloads::{ArrivalPlan, Suite};

struct Fixture {
    oracle: SuiteOracle,
    arch: Architecture,
    model: EnergyModel,
    predictor: BestCorePredictor,
    plan: ArrivalPlan,
}

fn fixture() -> Fixture {
    let suite = Suite::eembc_like_small();
    let model = EnergyModel::default();
    let oracle = SuiteOracle::build(&suite, &model);
    let arch = Architecture::paper_quad();
    let predictor = BestCorePredictor::train(&oracle, &PredictorConfig::fast());
    let plan = ArrivalPlan::uniform(400, 40_000_000, suite.len(), 99);
    Fixture {
        oracle,
        arch,
        model,
        predictor,
        plan,
    }
}

/// Figure 6 (and Figure 7 share these runs): the four systems on one plan.
fn bench_figure6_systems(f: &Fixture) {
    let simulator = Simulator::new(f.arch.num_cores());
    bench_report("figure6_system_run/base", 10, || {
        let mut system = BaseSystem::new(&f.oracle, f.model, f.arch.num_cores());
        simulator.run(&f.plan, &mut system).energy.total()
    });
    bench_report("figure6_system_run/optimal", 10, || {
        let mut system = OptimalSystem::new(&f.arch, &f.oracle, f.model);
        simulator.run(&f.plan, &mut system).energy.total()
    });
    bench_report("figure6_system_run/energy_centric", 10, || {
        let mut system = EnergyCentricSystem::new(&f.arch, &f.oracle, f.model, f.predictor.clone());
        simulator.run(&f.plan, &mut system).energy.total()
    });
    bench_report("figure6_system_run/proposed", 10, || {
        let mut system =
            ProposedSystem::with_model(&f.arch, &f.oracle, f.model, f.predictor.clone());
        simulator.run(&f.plan, &mut system).energy.total()
    });
}

/// The offline characterisation behind every experiment (Table 1 sweep of
/// the whole suite), fused pipeline vs the serial reference.
fn bench_oracle_build() {
    let suite = Suite::eembc_like_small();
    let model = EnergyModel::default();
    bench_report("characterisation/suite_sweep_reference", 5, || {
        hetero_oracles::core::build_reference(&suite, &model).len()
    });
    bench_report("characterisation/suite_sweep_fused", 5, || {
        SuiteOracle::build(&suite, &model).len()
    });
}

/// Sec. IV.D: predictor training cost (fast configuration).
fn bench_predictor_training() {
    let suite = Suite::eembc_like_small();
    let model = EnergyModel::default();
    let oracle = SuiteOracle::build(&suite, &model);
    bench_report("ann_predictor/train_fast_ensemble", 5, || {
        BestCorePredictor::train(&oracle, &PredictorConfig::fast()).ensemble_size()
    });
    let predictor = BestCorePredictor::train(&oracle, &PredictorConfig::fast());
    let stats = oracle.execution_statistics(workloads::BenchmarkId(0));
    bench_report("ann_predictor/predict_one", 2000, || {
        predictor.predict(&stats)
    });
}

fn main() {
    let f = fixture();
    bench_figure6_systems(&f);
    bench_oracle_build();
    bench_predictor_training();
}
