//! Reproduce the **Section IV.D claim**: "the ANNs predicted best cache
//! sizes … only degraded the average energy consumption by less than 2 %
//! over all the benchmarks as compared to the optimal cache size."
//!
//! Three evaluations are reported:
//!
//! * **deployment** — the predictor trained on the full suite (how the
//!   scheduler actually uses it), evaluated on every benchmark;
//! * **leave-one-out** — each benchmark predicted by an ensemble that
//!   never saw it, the honest generalisation measurement;
//! * **serving agreement** — the distilled single-student path against
//!   the exact f64 ensemble: best-core argmax agreement over every
//!   benchmark's feature vector plus jittered replicas. The student is a
//!   collapsed model, so it is held to *decision agreement* (≥ 99 %), not
//!   bit-identity; the run exits non-zero when it falls under the bar,
//!   making this binary the release-mode agreement gate (the debug-mode
//!   counterpart is `crates/bench/tests/serving_properties.rs`).
//!
//! ```sh
//! cargo run --release -p hetero-bench --bin ann_accuracy [-- --smoke]
//! ```
//!
//! `--smoke` runs the same machinery end to end on the reduced suite and
//! config (no leave-one-out, no gate) — used by `scripts/check.sh`.

use cache_sim::CacheSizeKb;
use energy_model::EnergyModel;
use hetero_core::{BestCorePredictor, PredictorConfig, SuiteOracle};
use std::process::ExitCode;
use tinyann::{DistillConfig, TrainConfig};
use workloads::{SplitMix64, Suite};

/// The agreement bar the distilled student must clear in the gated run.
const MIN_AGREEMENT: f64 = 0.99;

/// Jittered replicas per benchmark in the agreement probe set.
const PROBE_REPLICAS: usize = 12;

/// Relative probe jitter (counters vary a few percent run to run).
const PROBE_JITTER: f64 = 0.03;

fn probe_rows(oracle: &SuiteOracle, replicas: usize) -> Vec<Vec<f64>> {
    let mut rng = SplitMix64::new(0xA62E);
    let mut rows = Vec::new();
    for benchmark in oracle.benchmarks() {
        let features = oracle.execution_statistics(benchmark).to_vector();
        rows.push(features.to_vec());
        for _ in 0..replicas {
            rows.push(
                features
                    .iter()
                    .map(|&v| v * (1.0 + PROBE_JITTER * (rng.next_f64() * 2.0 - 1.0)))
                    .collect(),
            );
        }
    }
    rows
}

/// Best-core argmax agreement of the distilled serving path with the
/// exact f64 ensemble, over the probe set. Returns
/// `(distilled_agreement, probe_count)`.
fn serving_agreement(
    deployed: &BestCorePredictor,
    oracle: &SuiteOracle,
    distill_epochs: usize,
) -> (f64, usize) {
    let probes = probe_rows(oracle, PROBE_REPLICAS);
    let exact: Vec<CacheSizeKb> = probes
        .iter()
        .map(|p| CacheSizeKb::nearest(deployed.predict_raw_features(p)))
        .collect();

    let student = deployed
        .distill(
            oracle,
            &DistillConfig {
                replicas: 10,
                jitter: 0.04,
                hidden: vec![24],
                train: TrainConfig {
                    epochs: distill_epochs,
                    ..TrainConfig::default()
                },
            },
        )
        .expect("deployed predictor is ANN-backed");
    let distilled_agree = probes
        .iter()
        .zip(&exact)
        .filter(|(p, &e)| CacheSizeKb::nearest(student.predict_raw_features(p)) == e)
        .count();

    (distilled_agree as f64 / probes.len() as f64, probes.len())
}

fn main() -> ExitCode {
    let smoke = std::env::args().skip(1).any(|a| a == "--smoke");
    println!("== Sec. IV.D: ANN best-cache-size prediction quality ==\n");
    let (suite, config) = if smoke {
        println!("smoke mode: reduced suite/config, no leave-one-out, no gate\n");
        (Suite::eembc_like_small(), PredictorConfig::fast())
    } else {
        (Suite::eembc_like(), PredictorConfig::paper())
    };
    let model = EnergyModel::default();
    println!(
        "characterising {} kernels x 18 configurations ...",
        suite.len()
    );
    let oracle = SuiteOracle::build(&suite, &model);
    println!(
        "predictor: {} bagged ANNs, hidden {:?}, 70/15/15 split, augmentation x{}\n",
        config.ensemble_size, config.hidden, config.augmentation
    );

    // Deployment (in-sample) evaluation; leave-one-out only in the full run.
    let deployed = BestCorePredictor::train(&oracle, &config);
    let mut rows = Vec::new();
    for (kernel, benchmark) in suite.iter().zip(oracle.benchmarks()) {
        let stats = oracle.execution_statistics(benchmark);
        let loo_size = if smoke {
            None
        } else {
            Some(BestCorePredictor::train_excluding(&oracle, &[benchmark], &config).predict(&stats))
        };
        rows.push((
            kernel.name().to_owned(),
            benchmark,
            deployed.predict(&stats),
            loo_size,
        ));
    }

    println!(
        "{:<12} {:>7} {:>10} {:>12} {:>10} {:>12}",
        "benchmark", "actual", "deployed", "energy delta", "leave-1-out", "energy delta"
    );
    let mut deployed_deg = Vec::new();
    let mut loo_deg = Vec::new();
    for (name, benchmark, deployed_size, loo_size) in rows {
        let actual = oracle.best_size(benchmark);
        let best = oracle.best_config(benchmark).1.total_nj();
        let degradation =
            |size| oracle.best_config_with_size(benchmark, size).1.total_nj() / best - 1.0;
        let d_dep = degradation(deployed_size);
        deployed_deg.push(d_dep);
        let (loo_text, loo_delta_text) = match loo_size {
            Some(size) => {
                let d_loo = degradation(size);
                loo_deg.push(d_loo);
                (size.to_string(), format!("{:.2}%", d_loo * 100.0))
            }
            None => ("-".to_owned(), "-".to_owned()),
        };
        println!(
            "{:<12} {:>7} {:>10} {:>11.2}% {:>10} {:>12}",
            name,
            actual.to_string(),
            deployed_size.to_string(),
            d_dep * 100.0,
            loo_text,
            loo_delta_text
        );
    }

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "\ndeployment: mean energy degradation {:.2}% (paper claim: < 2%)",
        mean(&deployed_deg) * 100.0
    );
    if !loo_deg.is_empty() {
        println!(
            "leave-one-out: mean energy degradation {:.2}%, {} / {} exact sizes",
            mean(&loo_deg) * 100.0,
            loo_deg.iter().filter(|&&d| d == 0.0).count(),
            loo_deg.len()
        );
    }

    // Serving-path argmax agreement of the distilled student.
    println!("\n== serving-path best-core argmax agreement ==\n");
    let distill_epochs = if smoke { 120 } else { 400 };
    let (distilled_agreement, probe_count) = serving_agreement(&deployed, &oracle, distill_epochs);
    println!(
        "probes: {} ({} benchmarks x (1 + {} jittered replicas @ {:.0}%))",
        probe_count,
        oracle.len(),
        PROBE_REPLICAS,
        PROBE_JITTER * 100.0
    );
    println!(
        "distilled   vs f64 ensemble: {:.2}% argmax agreement",
        distilled_agreement * 100.0
    );

    if smoke {
        println!("\nsmoke run complete (agreement gate not evaluated)");
        return ExitCode::SUCCESS;
    }

    if distilled_agreement >= MIN_AGREEMENT {
        println!(
            "\nPASS: distilled serving path >= {:.0}% argmax agreement",
            MIN_AGREEMENT * 100.0
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "\nFAIL: distilled serving-path agreement {:.2}% under {:.0}%",
            distilled_agreement * 100.0,
            MIN_AGREEMENT * 100.0
        );
        ExitCode::FAILURE
    }
}
