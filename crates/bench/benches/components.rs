//! Component micro-benchmarks: throughput regression tracking for every
//! substrate the experiments rest on (cache replay, fused sweeps, energy
//! evaluation, trace generation, ANN training/prediction, tuning heuristic,
//! Section IV.E decision).
//!
//! A plain `std::time::Instant` harness (`hetero_bench::perf`) — criterion
//! is unavailable offline. Run with `cargo bench --bench components`.

use cache_sim::{simulate, sweep_fused, Access, CacheConfig, Trace, BASE_CONFIG};
use energy_model::{EnergyModel, ExecutionCost};
use hetero_bench::perf::bench_report;
use hetero_core::{StallDecision, TuningExplorer, TuningStatus};
use hetero_oracles::cache::sweep_serial;
use tinyann::{Activation, Network};
use workloads::Suite;

fn bench_cache_replay() {
    let trace: Trace = (0..100_000u64)
        .map(|i| Access::read((i * 67) % 32_768))
        .collect();
    for config in ["2KB_1W_16B", "4KB_2W_32B", "8KB_4W_64B"] {
        let config = CacheConfig::parse(config).expect("valid");
        bench_report(&format!("cache_replay/{config}"), 20, || {
            simulate(config, &trace)
        });
    }
    bench_report("design_space_sweep/serial_18_passes", 5, || {
        sweep_serial(&trace)
    });
    bench_report("design_space_sweep/fused_single_pass", 5, || {
        sweep_fused(&trace)
    });
}

fn bench_energy_model() {
    let model = EnergyModel::default();
    let trace: Trace = (0..10_000u64).map(|i| Access::read(i * 16)).collect();
    let stats = simulate(BASE_CONFIG, &trace);
    bench_report("energy_execution_eval", 1000, || {
        model.execution(BASE_CONFIG, &stats, 50_000)
    });
}

fn bench_trace_generation() {
    let suite = Suite::eembc_like_small();
    bench_report("suite_trace_generation", 10, || {
        suite.iter().map(|k| k.run().trace.len()).sum::<usize>()
    });
}

fn bench_ann() {
    // The paper's topology: 18 features in, {10, 18, 5} hidden, 1 out.
    let network = Network::new(&[18, 10, 18, 5, 1], Activation::Tanh, 7);
    let input = vec![0.1; 18];
    bench_report("ann_forward_paper_topology", 5000, || {
        network.forward(&input)
    });

    let inputs: Vec<Vec<f64>> = (0..32).map(|i| vec![f64::from(i) / 32.0; 18]).collect();
    let targets: Vec<Vec<f64>> = (0..32).map(|i| vec![f64::from(i % 3)]).collect();
    bench_report("ann_train_batch_32", 200, || {
        let mut net = network.clone();
        net.train_batch(&inputs, &targets, 0.05, 0.9);
        net
    });
}

fn bench_tuning_heuristic() {
    bench_report("tuning_heuristic_full_walk", 2000, || {
        let mut explorer = TuningExplorer::new(cache_sim::CacheSizeKb::K8);
        while let TuningStatus::Explore(config) = explorer.status() {
            // Unimodal synthetic surface.
            let energy =
                -f64::from(config.associativity().ways()) + f64::from(config.line().bytes()) * 0.01;
            explorer.record(config, energy);
        }
        explorer.explored_count()
    });
}

fn bench_decision() {
    let cost = |nj: f64| ExecutionCost {
        cycles: 1_000,
        energy: energy_model::EnergyBreakdown {
            dynamic_nj: nj,
            static_nj: 0.0,
            idle_nj: 0.0,
        },
    };
    bench_report("stall_decision_eval", 10_000, || {
        StallDecision::evaluate(cost(100.0), cost(140.0), 0.05, 40_000, 0.3)
    });
}

fn main() {
    bench_cache_replay();
    bench_energy_model();
    bench_trace_generation();
    bench_ann();
    bench_tuning_heuristic();
    bench_decision();
}
