//! JSON export of [`hetero_telemetry`] reports.
//!
//! Converts a [`TelemetryReport`] — per-core time-series, run-wide
//! histograms, run totals — and a span profile into the same hand-rolled
//! [`Json`] documents the experiment binaries persist
//! under `results/`. The `telemetry` binary writes one document per
//! system plus a cross-system summary.

use crate::json::Json;
use hetero_telemetry::{Histogram, RunTotals, SeriesPoint, SpanRecord, TelemetryReport};

/// Distil a histogram into its summary statistics (count, exact sum /
/// min / max, mean, and the p50/p95/p99 log-linear estimates).
pub fn histogram_summary(histogram: &Histogram) -> Json {
    Json::object([
        ("count", Json::UInt(histogram.count())),
        ("sum", Json::Num(histogram.sum() as f64)),
        ("mean", Json::Num(histogram.mean())),
        ("min", Json::UInt(histogram.min())),
        ("p50", Json::UInt(histogram.p50())),
        ("p95", Json::UInt(histogram.p95())),
        ("p99", Json::UInt(histogram.p99())),
        ("max", Json::UInt(histogram.max())),
    ])
}

/// One time-series window, with its per-core breakdown.
pub fn series_point_to_json(point: &SeriesPoint) -> Json {
    Json::object([
        ("start", Json::UInt(point.start)),
        ("end", Json::UInt(point.end)),
        ("arrivals", Json::UInt(point.arrivals)),
        ("placements", Json::UInt(point.placements)),
        ("completions", Json::UInt(point.completions)),
        ("stall_offers", Json::UInt(point.stall_offers)),
        ("stall_episodes", Json::UInt(point.stall_episodes)),
        ("evictions", Json::UInt(point.evictions)),
        ("preemption_probes", Json::UInt(point.preemption_probes)),
        ("faults", Json::UInt(point.faults)),
        ("retries", Json::UInt(point.retries)),
        ("fallbacks", Json::UInt(point.fallbacks)),
        ("ready_depth", Json::UInt(point.ready_depth)),
        ("dynamic_nj", Json::Num(point.dynamic_nj)),
        ("static_nj", Json::Num(point.static_nj)),
        (
            "energy_rate_nj_per_cycle",
            Json::Num(point.energy_rate_nj_per_cycle()),
        ),
        ("mean_utilisation", Json::Num(point.mean_utilisation())),
        (
            "cores",
            Json::Array(
                point
                    .cores
                    .iter()
                    .map(|core| {
                        Json::object([
                            ("busy_cycles", Json::UInt(core.busy_cycles)),
                            ("idle_cycles", Json::UInt(core.idle_cycles)),
                            ("offline_cycles", Json::UInt(core.offline_cycles)),
                            ("idle_energy_nj", Json::Num(core.idle_energy_nj)),
                            ("utilisation", Json::Num(core.utilisation)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The run-wide counters.
pub fn totals_to_json(totals: &RunTotals) -> Json {
    Json::object([
        ("arrivals", Json::UInt(totals.arrivals)),
        ("placements", Json::UInt(totals.placements)),
        ("completions", Json::UInt(totals.completions)),
        ("stall_offers", Json::UInt(totals.stall_offers)),
        ("stall_episodes", Json::UInt(totals.stall_episodes)),
        ("evictions", Json::UInt(totals.evictions)),
        ("preemption_probes", Json::UInt(totals.preemption_probes)),
        (
            "preemptions_granted",
            Json::UInt(totals.preemptions_granted),
        ),
        ("faults", Json::UInt(totals.faults)),
        ("retries", Json::UInt(totals.retries)),
        ("abandoned", Json::UInt(totals.abandoned)),
        ("fallbacks", Json::UInt(totals.fallbacks)),
        (
            "degraded_transitions",
            Json::UInt(totals.degraded_transitions),
        ),
        ("dynamic_nj", Json::Num(totals.dynamic_nj)),
        ("static_nj", Json::Num(totals.static_nj)),
        ("idle_energy_nj", Json::Num(totals.idle_energy_nj)),
    ])
}

/// A span profile as an array of `{name, depth, ms}` rows in start order.
pub fn spans_to_json(spans: &[SpanRecord]) -> Json {
    Json::Array(
        spans
            .iter()
            .map(|span| {
                Json::object([
                    ("name", Json::str(&span.name)),
                    ("depth", Json::UInt(span.depth as u64)),
                    ("ms", Json::Num(span.nanos as f64 / 1e6)),
                ])
            })
            .collect(),
    )
}

/// A full per-system telemetry document: identifying metadata, run
/// totals, the three run-wide histograms, whole-run utilisation, and the
/// complete per-core time-series.
pub fn telemetry_document(
    system: &str,
    discipline: &str,
    jobs: usize,
    seed: u64,
    report: &TelemetryReport,
) -> Json {
    Json::object([
        ("experiment", Json::str("telemetry")),
        ("system", Json::str(system)),
        ("discipline", Json::str(discipline)),
        ("jobs", Json::UInt(jobs as u64)),
        ("seed", Json::UInt(seed)),
        ("interval_cycles", Json::UInt(report.interval)),
        ("num_cores", Json::UInt(report.num_cores as u64)),
        ("horizon_cycles", Json::UInt(report.horizon)),
        ("totals", totals_to_json(&report.totals)),
        ("latency_cycles", histogram_summary(&report.latency_cycles)),
        ("job_energy_nj", histogram_summary(&report.job_energy_nj)),
        ("stall_cycles", histogram_summary(&report.stall_cycles)),
        ("mean_utilisation", Json::Num(report.mean_utilisation())),
        (
            "core_utilisation",
            Json::Array(
                report
                    .per_core_utilisation()
                    .into_iter()
                    .map(Json::Num)
                    .collect(),
            ),
        ),
        (
            "series",
            Json::Array(report.points.iter().map(series_point_to_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_telemetry::MetricsSink;
    use multicore_sim::{CoreId, PlacementKind, TraceEvent, TraceSink};
    use workloads::BenchmarkId;

    fn small_report() -> TelemetryReport {
        let mut sink = MetricsSink::new(2, 1_000);
        sink.record(TraceEvent::Arrival {
            seq: 0,
            benchmark: BenchmarkId(0),
            at: 10,
            priority: 3,
        });
        sink.record(TraceEvent::Placement {
            seq: 0,
            benchmark: BenchmarkId(0),
            core: CoreId(0),
            at: 10,
            cycles: 100,
            dynamic_nj: 4.0,
            static_nj: 1.0,
            kind: PlacementKind::Pass,
        });
        sink.record(TraceEvent::Completion {
            seq: 0,
            benchmark: BenchmarkId(0),
            core: CoreId(0),
            at: 110,
            arrival: 10,
            priority: 3,
        });
        sink.report()
    }

    #[test]
    fn documents_render_and_parse_back() {
        let report = small_report();
        let doc = telemetry_document("proposed", "fifo", 1, 42, &report);
        let parsed = Json::parse(&doc.to_pretty()).expect("telemetry document parses");
        assert_eq!(
            parsed.get("system").and_then(Json::as_str),
            Some("proposed")
        );
        assert_eq!(
            parsed
                .get("totals")
                .and_then(|t| t.get("completions"))
                .and_then(Json::as_u64),
            Some(1)
        );
        let latency = parsed.get("latency_cycles").expect("latency summary");
        assert_eq!(latency.get("count").and_then(Json::as_u64), Some(1));
        assert_eq!(latency.get("max").and_then(Json::as_u64), Some(100));
        let series = parsed.get("series").and_then(Json::as_array).unwrap();
        assert_eq!(series.len(), report.points.len());
        assert_eq!(
            series[0]
                .get("cores")
                .and_then(Json::as_array)
                .map(<[_]>::len),
            Some(2)
        );
    }

    #[test]
    fn span_rows_carry_depth_and_milliseconds() {
        let spans = [
            SpanRecord {
                name: "outer".to_owned(),
                depth: 0,
                nanos: 2_000_000,
            },
            SpanRecord {
                name: "inner".to_owned(),
                depth: 1,
                nanos: 500_000,
            },
        ];
        let doc = spans_to_json(&spans).to_pretty();
        let parsed = Json::parse(&doc).expect("span rows parse");
        let rows = parsed.as_array().unwrap();
        assert_eq!(rows[0].get("name").and_then(Json::as_str), Some("outer"));
        assert_eq!(rows[1].get("depth").and_then(Json::as_u64), Some(1));
    }
}
