//! `BENCHMARK.json` keeps to the benchmark's contract: its keys, the form
//! of every name and unit, the metric counts, the bounds and `paths`.

use hetero_bench::json::Json;
use hetero_benchmark::run::Workload;
use std::collections::HashSet;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn keys(json: &Json) -> Vec<&str> {
    let Json::Object(pairs) = json else {
        panic!("{json:?} is not an object")
    };
    let mut keys: Vec<&str> = pairs.iter().map(|(key, _)| key.as_str()).collect();
    keys.sort_unstable();
    keys
}

fn text<'a>(json: &'a Json, key: &str) -> &'a str {
    json.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} is not a string in {json:?}"))
}

fn list<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("{key} is not a list"))
}

/// `[A-Za-z0-9_.-]+`, starting with a letter or digit, at most 64 long.
fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn manifest_has_exactly_the_contract_keys() {
    let doc = manifest();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let paths: Vec<&str> = list(&doc, "paths")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let command = list(&doc, "command");
    assert!(!command.is_empty() && command.len() <= 32);
    for arg in command {
        let arg = arg.as_str().expect("command arguments are strings");
        assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."));
    }
    let seconds = doc.get("run_seconds").and_then(Json::as_u64);
    assert!(matches!(seconds, Some(1..=60)), "run_seconds {seconds:?}");
}

#[test]
fn workloads_are_the_four_the_benchmark_runs() {
    let doc = manifest();
    let workloads = list(&doc, "workloads");
    let names: Vec<&str> = workloads.iter().map(|w| text(w, "name")).collect();
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, expected);
    for workload in workloads {
        assert_eq!(keys(workload), ["name", "why"]);
        let why = text(workload, "why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }
}

#[test]
fn metrics_are_well_formed_and_named_once() {
    let doc = manifest();
    let end_to_end = list(&doc, "end_to_end");
    let per_layer = list(&doc, "per_layer");
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    let mut seen = HashSet::new();
    for workload in list(&doc, "workloads") {
        assert!(seen.insert(text(workload, "name")));
    }
    for (metrics, fields) in [
        (end_to_end, &["better", "bound", "name", "unit"][..]),
        (per_layer, &["better", "name", "unit"][..]),
    ] {
        for metric in metrics {
            assert_eq!(keys(metric), fields);
            let name = text(metric, "name");
            assert!(valid_name(name), "bad metric name {name}");
            assert!(seen.insert(name), "{name} is named twice");
            assert!(valid_unit(text(metric, "unit")), "bad unit for {name}");
            assert!(matches!(text(metric, "better"), "higher" | "lower"));
        }
    }
}

#[test]
fn bounds_are_shares_and_setup_has_the_largest() {
    let doc = manifest();
    let bound = |metric: &Json| match metric.get("bound") {
        Some(Json::Num(value)) => *value,
        other => panic!("bound {other:?} is not a fraction"),
    };
    let end_to_end = list(&doc, "end_to_end");
    for metric in end_to_end {
        assert!((0.0..=0.25).contains(&bound(metric)) && bound(metric) > 0.0);
    }
    let setup = end_to_end
        .iter()
        .find(|metric| text(metric, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(text(setup, "unit"), "s");
    assert_eq!(text(setup, "better"), "lower");
    assert!(end_to_end
        .iter()
        .all(|metric| bound(metric) <= bound(setup)));
}
