//! Printing a run's metrics and saving its self-describing results.

use crate::host;
use crate::run::{Metric, Report};
use crate::trace::SAMPLE_EVERY;
use hetero_bench::json::Json;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// A JSON number, or `null` for a non-finite value.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// Print every metric as `name value unit`, name failed checks on stderr,
/// and end with the one-line JSON result.
pub fn print(report: &Report) {
    let options = &report.options;
    println!(
        "# {} seed {}{}{}: {} setup(s), {} timed rep(s)",
        options.workload.name(),
        options.seed,
        if options.traced { ", traced" } else { "" },
        if options.smoke { ", smoke" } else { "" },
        report.setups,
        report.rep_wall_s.len(),
    );
    for metric in report.metrics.iter().chain(&report.extra) {
        println!("{} {} {}", metric.name, number(metric.value), metric.unit);
    }
    if !report.flagged_reps.is_empty() {
        eprintln!(
            "warning: host probe more than 10% off its median before rep(s) {:?}",
            report.flagged_reps
        );
    }
    for check in &report.checks {
        if let Some(failure) = &check.failure {
            eprintln!("check failed: {}: {failure}", check.name);
        }
    }
    println!("{}", result_line(report));
}

/// The last line of standard output: correctness, operation counts and
/// this mode's metrics with their units.
pub fn result_line(report: &Report) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.correct(),
        report.attempted,
        report.failed
    );
    for (index, metric) in report.metrics.iter().enumerate() {
        if index > 0 {
            line.push_str(", ");
        }
        let _ = write!(
            line,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            metric.name,
            number(metric.value),
            metric.unit
        );
    }
    line.push_str("}}");
    line
}

fn metric_map(metrics: &[Metric]) -> Json {
    Json::object(metrics.iter().map(|metric| {
        (
            metric.name.clone(),
            Json::object([
                ("value", Json::Num(metric.value)),
                ("unit", Json::str(metric.unit)),
                ("q1", Json::Num(metric.q1)),
                ("q3", Json::Num(metric.q3)),
                ("samples", Json::UInt(metric.samples as u64)),
            ]),
        )
    }))
}

/// Results file of a run: `<workload>-<seed>.json`, or
/// `<workload>-<seed>.traced.json` for a traced run.
pub fn results_path(dir: &Path, report: &Report) -> PathBuf {
    let options = &report.options;
    let suffix = if options.traced { ".traced" } else { "" };
    dir.join(format!(
        "{}-{}{suffix}.json",
        options.workload.name(),
        options.seed
    ))
}

/// Save the results (and, for a traced run, the kept spans as
/// `<workload>.trace.json`) under `dir`.
pub fn write(report: &Report, dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let options = &report.options;
    let numbers = |values: &[f64]| Json::Array(values.iter().map(|&v| Json::Num(v)).collect());
    let doc = Json::object([
        ("workload", Json::str(options.workload.name())),
        ("seed", Json::UInt(options.seed)),
        ("traced", Json::Bool(options.traced)),
        ("smoke", Json::Bool(options.smoke)),
        ("git_rev", Json::str(host::git_rev())),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "hetero_threads",
            Json::str(std::env::var("HETERO_THREADS").unwrap_or_default()),
        ),
        ("nproc", Json::UInt(host::nproc() as u64)),
        ("setups", Json::UInt(report.setups as u64)),
        ("reps", Json::UInt(report.rep_wall_s.len() as u64)),
        ("rep_wall_s", numbers(&report.rep_wall_s)),
        ("probe_ms", numbers(&report.probe_ms)),
        (
            "flagged_reps",
            Json::Array(
                report
                    .flagged_reps
                    .iter()
                    .map(|&i| Json::UInt(i as u64))
                    .collect(),
            ),
        ),
        ("metrics", metric_map(&report.metrics)),
        ("extra", metric_map(&report.extra)),
        (
            "checks",
            Json::Array(
                report
                    .checks
                    .iter()
                    .map(|check| {
                        Json::object([
                            ("name", Json::str(check.name)),
                            ("passed", Json::Bool(check.failure.is_none())),
                            (
                                "failure",
                                check.failure.clone().map_or(Json::Null, Json::Str),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("correct", Json::Bool(report.correct())),
        ("attempted", Json::UInt(report.attempted)),
        ("failed", Json::UInt(report.failed)),
    ]);
    std::fs::write(results_path(dir, report), doc.to_pretty())?;
    if options.traced {
        write_spans(
            report,
            &dir.join(format!("{}.trace.json", options.workload.name())),
        )?;
    }
    Ok(())
}

/// Spans one per line, after the run's per-layer metrics.
fn write_spans(report: &Report, path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "{{\"workload\": \"{}\", \"seed\": {}, \"sample_every\": {SAMPLE_EVERY},",
        report.options.workload.name(),
        report.options.seed
    )?;
    let layers = metric_map(&report.metrics).to_pretty();
    writeln!(out, "\"layers\": {},", layers.trim_end())?;
    writeln!(out, "\"spans\": [")?;
    for (index, span) in report.spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or("null".to_string(), |layer| format!("\"{}\"", layer.name()));
        let job = span
            .job_seq
            .map_or("null".to_string(), |seq| seq.to_string());
        writeln!(
            out,
            "{{\"layer\": \"{}\", \"start_ns\": {}, \"dur_ns\": {}, \"parent\": {parent}, \"job_seq\": {job}}}{}",
            span.layer.name(),
            span.start_ns,
            span.dur_ns,
            if index + 1 < report.spans.len() { "," } else { "" }
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}
