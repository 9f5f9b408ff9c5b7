//! Every workload at smoke size, untraced and traced: every check passes,
//! every metric `BENCHMARK.json` lists is printed with its unit, and a
//! seed replays its modeled outputs exactly.

use hetero_bench::json::Json;
use hetero_benchmark::run::Workload;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

/// Modeled end-to-end metrics: deterministic for a seed.
const MODELED: [&str; 5] = [
    "completed_fraction",
    "energy_per_job_nj",
    "energy_vs_base",
    "turnaround_mean_cycles",
    "latency_p99_cycles",
];

fn manifest_metrics(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Json::as_array)
        .expect("a metric list")
        .iter()
        .map(|metric| {
            let field = |key| {
                metric
                    .get(key)
                    .and_then(Json::as_str)
                    .expect(key)
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run one smoke workload; returns its standard output.
fn smoke(workload: Workload, seed: u64, trace: bool) -> String {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let output = Command::new(env!("CARGO_BIN_EXE_hetero-benchmark"))
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{} (trace {trace}) failed:\n{stdout}\n{}",
        workload.name(),
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
}

/// The metrics of the last line, as `(name, value, unit)`.
fn result_metrics(stdout: &str) -> Vec<(String, f64, String)> {
    let line = stdout.lines().last().expect("a result line");
    let result = Json::parse(line).expect("the last line is JSON");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1));
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    let Some(Json::Object(metrics)) = result.get("metrics") else {
        panic!("no metrics in {line}")
    };
    metrics
        .iter()
        .map(|(name, metric)| {
            let value = match metric.get("value") {
                Some(Json::Num(value)) => *value,
                Some(Json::UInt(value)) => *value as f64,
                other => panic!("{name} has value {other:?}"),
            };
            let unit = metric.get("unit").and_then(Json::as_str).expect("a unit");
            (name.clone(), value, unit.to_string())
        })
        .collect()
}

#[test]
fn every_workload_prints_every_listed_metric_with_its_unit() {
    let start = Instant::now();
    for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
        let listed = manifest_metrics(list);
        for workload in Workload::ALL {
            let stdout = smoke(workload, 20190325, trace);
            let printed: Vec<(String, String)> = result_metrics(&stdout)
                .into_iter()
                .map(|(name, _, unit)| (name, unit))
                .collect();
            assert_eq!(printed, listed, "{} (trace {trace})", workload.name());
            for (name, unit) in &listed {
                assert!(
                    stdout
                        .lines()
                        .any(|line| line.starts_with(&format!("{name} "))
                            && line.ends_with(&format!(" {unit}"))),
                    "{} does not print `{name} <value> {unit}`",
                    workload.name()
                );
            }
        }
    }
    eprintln!(
        "eight smoke runs took {:.1} s",
        start.elapsed().as_secs_f64()
    );
}

#[test]
fn a_seed_replays_its_modeled_outputs_exactly() {
    for workload in Workload::ALL {
        let modeled = || -> Vec<(String, f64)> {
            result_metrics(&smoke(workload, 7, false))
                .into_iter()
                .filter(|(name, ..)| MODELED.contains(&name.as_str()))
                .map(|(name, value, _)| (name, value))
                .collect()
        };
        let first = modeled();
        assert_eq!(first.len(), MODELED.len());
        assert_eq!(first, modeled(), "{}", workload.name());
    }
}
