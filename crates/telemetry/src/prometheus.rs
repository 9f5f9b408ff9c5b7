//! Prometheus text exposition of a [`TelemetryReport`]: the body of the
//! engine's `/metrics` endpoint and of `results/TELEMETRY_prometheus.txt`.

use crate::sink::TelemetryReport;
use std::fmt::Write as _;

impl TelemetryReport {
    /// Render the report in the Prometheus text exposition format, every
    /// sample labelled `system="…"` (the value escaped per the format).
    ///
    /// Families come in a fixed order, each under one `# TYPE` line:
    /// the run counters, the energy and utilisation gauges, one
    /// `sched_core_utilisation` sample per core (labelled `core="N"`),
    /// then the latency, per-job energy and stall-duration histograms
    /// (cumulative `le` buckets over the non-empty bins, `+Inf`, `_sum`
    /// and `_count`). Non-finite gauges render as `NaN`/`+Inf`/`-Inf`,
    /// and the text ends with exactly one line feed.
    ///
    /// ```
    /// use hetero_telemetry::MetricsSink;
    ///
    /// let text = MetricsSink::new(2, 1_000).report().prometheus("proposed");
    /// assert!(text.contains("sched_completions_total{system=\"proposed\"} 0\n"));
    /// assert!(text.contains("sched_core_utilisation{system=\"proposed\",core=\"1\"} 0\n"));
    /// ```
    pub fn prometheus(&self, system: &str) -> String {
        let totals = &self.totals;
        let counters = [
            ("sched_arrivals_total", totals.arrivals),
            ("sched_placements_total", totals.placements),
            ("sched_completions_total", totals.completions),
            ("sched_stall_offers_total", totals.stall_offers),
            ("sched_stall_episodes_total", totals.stall_episodes),
            ("sched_evictions_total", totals.evictions),
            ("sched_preemption_probes_total", totals.preemption_probes),
            ("sched_faults_total", totals.faults),
            ("sched_retries_total", totals.retries),
            ("sched_jobs_abandoned_total", totals.abandoned),
            ("sched_fallbacks_total", totals.fallbacks),
            (
                "sched_degraded_transitions_total",
                totals.degraded_transitions,
            ),
            ("sched_sheds_total", totals.sheds),
            ("sched_horizon_cycles", self.horizon),
        ];
        let gauges = [
            ("sched_dynamic_energy_nj", totals.dynamic_nj),
            ("sched_static_energy_nj", totals.static_nj),
            ("sched_idle_energy_nj", totals.idle_energy_nj),
            ("sched_mean_utilisation", self.mean_utilisation()),
        ];
        let histograms = [
            ("sched_job_latency_cycles", &self.latency_cycles),
            ("sched_job_energy_nj", &self.job_energy_nj),
            ("sched_stall_duration_cycles", &self.stall_cycles),
        ];
        let system = escape(system);
        let mut out = String::new();
        for (name, value) in counters {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name}{{system=\"{system}\"}} {value}");
        }
        for (name, value) in gauges {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name}{{system=\"{system}\"}} {}", float(value));
        }
        let per_core = self.per_core_utilisation();
        if !per_core.is_empty() {
            let _ = writeln!(out, "# TYPE sched_core_utilisation gauge");
        }
        for (core, utilisation) in per_core.into_iter().enumerate() {
            let _ = writeln!(
                out,
                "sched_core_utilisation{{system=\"{system}\",core=\"{core}\"}} {}",
                float(utilisation)
            );
        }
        for (name, histogram) in histograms {
            let _ = writeln!(out, "# TYPE {name} histogram");
            for (le, cumulative) in histogram.cumulative_buckets() {
                let _ = writeln!(
                    out,
                    "{name}_bucket{{system=\"{system}\",le=\"{le}\"}} {cumulative}"
                );
            }
            let count = histogram.count();
            let _ = writeln!(
                out,
                "{name}_bucket{{system=\"{system}\",le=\"+Inf\"}} {count}"
            );
            let _ = writeln!(out, "{name}_sum{{system=\"{system}\"}} {}", histogram.sum());
            let _ = writeln!(out, "{name}_count{{system=\"{system}\"}} {count}");
        }
        out
    }
}

/// Label-value escaping: backslash, double quote, and line feed.
fn escape(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Prometheus floats: plain decimal, `NaN`/`+Inf`/`-Inf` spelled out.
fn float(value: f64) -> String {
    if value.is_nan() {
        "NaN".to_owned()
    } else if value.is_infinite() {
        if value > 0.0 { "+Inf" } else { "-Inf" }.to_owned()
    } else {
        format!("{value}")
    }
}

#[cfg(test)]
mod tests {
    use crate::{CorePoint, Histogram, RunTotals, SeriesPoint, TelemetryReport};

    /// The text-exposition grammar the renderer must keep: metric names
    /// `[a-zA-Z_:][a-zA-Z0-9_:]*`, only `# TYPE`/`# HELP` comments, one
    /// `series value` sample per line with a single-token value, and a
    /// final line feed with no blank line before it.
    fn assert_conformant(text: &str) {
        assert!(
            text.is_empty() || text.ends_with('\n'),
            "exposition must end with a line feed"
        );
        assert!(!text.ends_with("\n\n"), "no trailing blank line");
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# ") {
                assert!(
                    rest.starts_with("TYPE ") || rest.starts_with("HELP "),
                    "{line}"
                );
                continue;
            }
            // `name{labels} value` or `name value`; values never contain
            // spaces (NaN/+Inf/-Inf are single tokens).
            let (series, value) = line.rsplit_once(' ').expect(line);
            assert!(!value.is_empty() && !value.contains(' '), "{line}");
            let name = series.split('{').next().unwrap();
            assert!(
                name.chars()
                    .enumerate()
                    .all(|(i, ch)| ch.is_ascii_alphabetic()
                        || ch == '_'
                        || ch == ':'
                        || (i > 0 && ch.is_ascii_digit())),
                "illegal metric name in {line:?}"
            );
        }
    }

    fn core(busy_cycles: u64, idle_cycles: u64) -> CorePoint {
        CorePoint {
            busy_cycles,
            idle_cycles,
            offline_cycles: 0,
            idle_energy_nj: 0.0,
            utilisation: 0.0,
        }
    }

    fn point(index: usize, start: u64, end: u64, cores: Vec<CorePoint>) -> SeriesPoint {
        SeriesPoint {
            index,
            start,
            end,
            arrivals: 0,
            placements: 0,
            completions: 0,
            stall_offers: 0,
            stall_episodes: 0,
            evictions: 0,
            preemption_probes: 0,
            faults: 0,
            retries: 0,
            fallbacks: 0,
            sheds: 0,
            ready_depth: 0,
            dynamic_nj: 0.0,
            static_nj: 0.0,
            cores,
        }
    }

    fn histogram(values: &[u64]) -> Histogram {
        let mut histogram = Histogram::new();
        for &value in values {
            histogram.record(value);
        }
        histogram
    }

    /// `totals` over two cores (utilisation 0.5 and 2/3 across a
    /// truncated second window) and three non-empty histograms.
    fn report(totals: RunTotals) -> TelemetryReport {
        TelemetryReport {
            interval: 1_000,
            num_cores: 2,
            horizon: 1_500,
            points: vec![
                point(0, 0, 1_000, vec![core(250, 750), core(1_000, 0)]),
                point(1, 1_000, 1_500, vec![core(500, 0), core(0, 500)]),
            ],
            latency_cycles: histogram(&[100, 1_000, 100_000]),
            job_energy_nj: histogram(&[5, 5_000]),
            stall_cycles: histogram(&[40]),
            totals,
        }
    }

    /// Run counters plus a NaN, a +Inf and a negative energy gauge.
    fn totals() -> RunTotals {
        RunTotals {
            arrivals: 4,
            placements: 5,
            completions: 3,
            stall_offers: 2,
            stall_episodes: 1,
            evictions: 1,
            preemption_probes: 2,
            preemptions_granted: 1,
            faults: 1,
            retries: 1,
            abandoned: 1,
            fallbacks: 2,
            degraded_transitions: 1,
            sheds: 7,
            dynamic_nj: f64::NAN,
            static_nj: f64::INFINITY,
            idle_energy_nj: -1.25,
        }
    }

    /// Family order, label blocks, value tokens and label escaping, byte
    /// for byte, for a `system` label carrying a non-ASCII letter, quotes,
    /// a backslash and a line feed.
    #[test]
    fn the_exposition_is_pinned_byte_for_byte() {
        let text = report(totals()).prometheus("λ-node \"east\"\\1\nx");
        assert_eq!(text, GOLDEN);
        assert_conformant(&text);
    }

    #[test]
    fn label_values_are_escaped() {
        let text = report(totals()).prometheus("a\"b\\c");
        assert!(
            text.contains("sched_arrivals_total{system=\"a\\\"b\\\\c\"} 4\n"),
            "{text}"
        );
        assert!(
            text.contains("sched_core_utilisation{system=\"a\\\"b\\\\c\",core=\"1\"} "),
            "{text}"
        );
        assert_conformant(&text);
    }

    #[test]
    fn non_finite_gauges_render_as_spec_tokens() {
        let text = report(RunTotals {
            dynamic_nj: f64::NAN,
            static_nj: f64::INFINITY,
            idle_energy_nj: f64::NEG_INFINITY,
            ..totals()
        })
        .prometheus("base");
        assert!(
            text.contains("sched_dynamic_energy_nj{system=\"base\"} NaN\n"),
            "{text}"
        );
        assert!(
            text.contains("sched_static_energy_nj{system=\"base\"} +Inf\n"),
            "{text}"
        );
        assert!(
            text.contains("sched_idle_energy_nj{system=\"base\"} -Inf\n"),
            "{text}"
        );
        assert_conformant(&text);
    }

    /// Captured from the registry-backed renderer this function replaced.
    const GOLDEN: &str = r#"# TYPE sched_arrivals_total counter
sched_arrivals_total{system="λ-node \"east\"\\1\nx"} 4
# TYPE sched_placements_total counter
sched_placements_total{system="λ-node \"east\"\\1\nx"} 5
# TYPE sched_completions_total counter
sched_completions_total{system="λ-node \"east\"\\1\nx"} 3
# TYPE sched_stall_offers_total counter
sched_stall_offers_total{system="λ-node \"east\"\\1\nx"} 2
# TYPE sched_stall_episodes_total counter
sched_stall_episodes_total{system="λ-node \"east\"\\1\nx"} 1
# TYPE sched_evictions_total counter
sched_evictions_total{system="λ-node \"east\"\\1\nx"} 1
# TYPE sched_preemption_probes_total counter
sched_preemption_probes_total{system="λ-node \"east\"\\1\nx"} 2
# TYPE sched_faults_total counter
sched_faults_total{system="λ-node \"east\"\\1\nx"} 1
# TYPE sched_retries_total counter
sched_retries_total{system="λ-node \"east\"\\1\nx"} 1
# TYPE sched_jobs_abandoned_total counter
sched_jobs_abandoned_total{system="λ-node \"east\"\\1\nx"} 1
# TYPE sched_fallbacks_total counter
sched_fallbacks_total{system="λ-node \"east\"\\1\nx"} 2
# TYPE sched_degraded_transitions_total counter
sched_degraded_transitions_total{system="λ-node \"east\"\\1\nx"} 1
# TYPE sched_sheds_total counter
sched_sheds_total{system="λ-node \"east\"\\1\nx"} 7
# TYPE sched_horizon_cycles counter
sched_horizon_cycles{system="λ-node \"east\"\\1\nx"} 1500
# TYPE sched_dynamic_energy_nj gauge
sched_dynamic_energy_nj{system="λ-node \"east\"\\1\nx"} NaN
# TYPE sched_static_energy_nj gauge
sched_static_energy_nj{system="λ-node \"east\"\\1\nx"} +Inf
# TYPE sched_idle_energy_nj gauge
sched_idle_energy_nj{system="λ-node \"east\"\\1\nx"} -1.25
# TYPE sched_mean_utilisation gauge
sched_mean_utilisation{system="λ-node \"east\"\\1\nx"} 0.5833333333333333
# TYPE sched_core_utilisation gauge
sched_core_utilisation{system="λ-node \"east\"\\1\nx",core="0"} 0.5
sched_core_utilisation{system="λ-node \"east\"\\1\nx",core="1"} 0.6666666666666666
# TYPE sched_job_latency_cycles histogram
sched_job_latency_cycles_bucket{system="λ-node \"east\"\\1\nx",le="101"} 1
sched_job_latency_cycles_bucket{system="λ-node \"east\"\\1\nx",le="1007"} 2
sched_job_latency_cycles_bucket{system="λ-node \"east\"\\1\nx",le="100351"} 3
sched_job_latency_cycles_bucket{system="λ-node \"east\"\\1\nx",le="+Inf"} 3
sched_job_latency_cycles_sum{system="λ-node \"east\"\\1\nx"} 101100
sched_job_latency_cycles_count{system="λ-node \"east\"\\1\nx"} 3
# TYPE sched_job_energy_nj histogram
sched_job_energy_nj_bucket{system="λ-node \"east\"\\1\nx",le="5"} 1
sched_job_energy_nj_bucket{system="λ-node \"east\"\\1\nx",le="5119"} 2
sched_job_energy_nj_bucket{system="λ-node \"east\"\\1\nx",le="+Inf"} 2
sched_job_energy_nj_sum{system="λ-node \"east\"\\1\nx"} 5005
sched_job_energy_nj_count{system="λ-node \"east\"\\1\nx"} 2
# TYPE sched_stall_duration_cycles histogram
sched_stall_duration_cycles_bucket{system="λ-node \"east\"\\1\nx",le="40"} 1
sched_stall_duration_cycles_bucket{system="λ-node \"east\"\\1\nx",le="+Inf"} 1
sched_stall_duration_cycles_sum{system="λ-node \"east\"\\1\nx"} 40
sched_stall_duration_cycles_count{system="λ-node \"east\"\\1\nx"} 1
"#;
}
