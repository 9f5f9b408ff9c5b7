//! Allocation-free metrics registry: counters, gauges, and histograms
//! addressed by typed handles, with Prometheus text exposition.
//!
//! Metrics are registered up front (the only allocating step); every
//! subsequent `inc`/`set`/`observe` is a bounds-checked array write, so
//! the hot path of an instrumented loop never touches the allocator.
//! Handles are plain indices — copy them freely.

use crate::histogram::Histogram;
use std::fmt::Write as _;

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// One named metric with Prometheus-style labels.
#[derive(Debug, Clone)]
struct Metric<T> {
    name: String,
    labels: Vec<(String, String)>,
    value: T,
}

/// A set of named metrics and their current values.
///
/// ```
/// use hetero_telemetry::Registry;
///
/// let mut registry = Registry::new();
/// let jobs = registry.counter("sim_jobs_completed", &[("system", "proposed")]);
/// let depth = registry.gauge("sim_ready_depth", &[]);
/// let latency = registry.histogram("sim_job_latency_cycles", &[]);
///
/// registry.add(jobs, 3);
/// registry.set(depth, 7.0);
/// registry.observe(latency, 1200);
///
/// let text = registry.prometheus();
/// assert!(text.contains("sim_jobs_completed{system=\"proposed\"} 3"));
/// assert!(text.contains("# TYPE sim_job_latency_cycles histogram"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: Vec<Metric<u64>>,
    gauges: Vec<Metric<f64>>,
    histograms: Vec<Metric<Histogram>>,
    helps: Vec<(String, String)>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Register a counter (monotone `u64`), returning its handle.
    /// The name and label names are sanitised to the Prometheus
    /// identifier grammar (see `sanitise_metric_name`).
    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)]) -> CounterId {
        self.counters.push(Metric {
            name: sanitise_metric_name(name),
            labels: own_labels(labels),
            value: 0,
        });
        CounterId(self.counters.len() - 1)
    }

    /// Register a gauge (instantaneous `f64`), returning its handle.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)]) -> GaugeId {
        self.gauges.push(Metric {
            name: sanitise_metric_name(name),
            labels: own_labels(labels),
            value: 0.0,
        });
        GaugeId(self.gauges.len() - 1)
    }

    /// Register a histogram, returning its handle.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)]) -> HistogramId {
        self.histograms.push(Metric {
            name: sanitise_metric_name(name),
            labels: own_labels(labels),
            value: Histogram::new(),
        });
        HistogramId(self.histograms.len() - 1)
    }

    /// Attach a `# HELP` docstring to the metric family `name` (applied
    /// to the sanitised name). Rendered once, before the family's
    /// `# TYPE` line; re-registering replaces the text.
    pub fn help(&mut self, name: &str, text: &str) {
        let name = sanitise_metric_name(name);
        if let Some(entry) = self.helps.iter_mut().find(|(n, _)| *n == name) {
            entry.1 = text.to_owned();
        } else {
            self.helps.push((name, text.to_owned()));
        }
    }

    /// Increment a counter by one.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id.0].value += 1;
    }

    /// Increment a counter by `n`.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0].value += n;
    }

    /// Set a gauge.
    #[inline]
    pub fn set(&mut self, id: GaugeId, value: f64) {
        self.gauges[id.0].value = value;
    }

    /// Record one observation into a histogram.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, value: u64) {
        self.histograms[id.0].value.record(value);
    }

    /// Current counter value.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0].value
    }

    /// Current gauge value.
    pub fn gauge_value(&self, id: GaugeId) -> f64 {
        self.gauges[id.0].value
    }

    /// Read access to a registered histogram.
    pub fn histogram_value(&self, id: HistogramId) -> &Histogram {
        &self.histograms[id.0].value
    }

    /// Merge another histogram into a registered one (for folding
    /// per-run histograms into a fleet-wide registry).
    pub fn merge_histogram(&mut self, id: HistogramId, other: &Histogram) {
        self.histograms[id.0].value.merge(other);
    }

    /// Render the whole registry in the Prometheus text exposition
    /// format, in registration order, with one `# HELP` (when set via
    /// [`help`](Self::help)) and one `# TYPE` line per metric family
    /// (consecutive metrics sharing a name form one family). The output
    /// is either empty or ends with exactly one line feed, per the text
    /// format spec.
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        for metric in &self.counters {
            self.family_header(&mut out, &mut last_family, &metric.name, "counter");
            let _ = writeln!(
                out,
                "{}{} {}",
                metric.name,
                label_block(&metric.labels),
                metric.value
            );
        }
        for metric in &self.gauges {
            self.family_header(&mut out, &mut last_family, &metric.name, "gauge");
            let _ = writeln!(
                out,
                "{}{} {}",
                metric.name,
                label_block(&metric.labels),
                fmt_f64(metric.value)
            );
        }
        for metric in &self.histograms {
            self.family_header(&mut out, &mut last_family, &metric.name, "histogram");
            for (le, cumulative) in metric.value.cumulative_buckets() {
                let _ = writeln!(
                    out,
                    "{}_bucket{} {cumulative}",
                    metric.name,
                    label_block_with(&metric.labels, "le", &le.to_string()),
                );
            }
            let _ = writeln!(
                out,
                "{}_bucket{} {}",
                metric.name,
                label_block_with(&metric.labels, "le", "+Inf"),
                metric.value.count()
            );
            let _ = writeln!(
                out,
                "{}_sum{} {}",
                metric.name,
                label_block(&metric.labels),
                metric.value.sum()
            );
            let _ = writeln!(
                out,
                "{}_count{} {}",
                metric.name,
                label_block(&metric.labels),
                metric.value.count()
            );
        }
        out
    }

    /// Emit `# HELP` (when registered) and `# TYPE` headers when
    /// entering a new metric family.
    fn family_header(&self, out: &mut String, last: &mut String, name: &str, kind: &str) {
        if last != name {
            if let Some((_, text)) = self.helps.iter().find(|(n, _)| n == name) {
                let _ = writeln!(out, "# HELP {name} {}", escape_help(text));
            }
            let _ = writeln!(out, "# TYPE {name} {kind}");
            name.clone_into(last);
        }
    }
}

fn own_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|&(k, v)| (sanitise_label_name(k), v.to_owned()))
        .collect()
}

/// Coerce `name` into the Prometheus metric-name grammar
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`: every other character becomes `_`, and a
/// leading digit (or an empty name) gains a `_` prefix. Sanitising at
/// registration (rather than panicking at scrape time) keeps adversarial
/// names — dotted, dashed, spaced, non-ASCII — from corrupting the whole
/// exposition.
pub fn sanitise_metric_name(name: &str) -> String {
    sanitise(name, true)
}

/// Coerce a label name into `[a-zA-Z_][a-zA-Z0-9_]*` (colons are not
/// legal in label names, unlike metric names).
pub fn sanitise_label_name(name: &str) -> String {
    sanitise(name, false)
}

fn sanitise(name: &str, allow_colon: bool) -> String {
    let mut out = String::with_capacity(name.len().max(1));
    for (index, ch) in name.chars().enumerate() {
        let legal = ch.is_ascii_alphabetic()
            || ch == '_'
            || (allow_colon && ch == ':')
            || (index > 0 && ch.is_ascii_digit());
        if legal {
            out.push(ch);
        } else if index == 0 && ch.is_ascii_digit() {
            out.push('_');
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

fn label_block(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn label_block_with(labels: &[(String, String)], key: &str, value: &str) -> String {
    let mut body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape(v)))
        .collect();
    body.push(format!("{key}=\"{}\"", escape(value)));
    format!("{{{}}}", body.join(","))
}

/// Label-value escaping: backslash, double quote, and line feed.
fn escape(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// `# HELP` docstring escaping: only backslash and line feed — double
/// quotes are legal in help text, unlike in label values.
fn escape_help(value: &str) -> String {
    value.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Prometheus floats: plain decimal, `NaN`/`+Inf`/`-Inf` spelled out.
fn fmt_f64(value: f64) -> String {
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
    use super::*;

    #[test]
    fn handles_read_back_what_was_written() {
        let mut r = Registry::new();
        let c = r.counter("c_total", &[]);
        let g = r.gauge("g", &[("core", "2")]);
        let h = r.histogram("h_cycles", &[]);
        r.inc(c);
        r.add(c, 4);
        r.set(g, 2.5);
        r.observe(h, 10);
        r.observe(h, 30);
        assert_eq!(r.counter_value(c), 5);
        assert_eq!(r.gauge_value(g), 2.5);
        assert_eq!(r.histogram_value(h).count(), 2);
        assert_eq!(r.histogram_value(h).max(), 30);
    }

    #[test]
    fn prometheus_text_has_the_expected_shape() {
        let mut r = Registry::new();
        let c = r.counter("jobs_total", &[("system", "base")]);
        r.add(c, 7);
        let g = r.gauge("utilisation", &[]);
        r.set(g, 0.75);
        let h = r.histogram("latency_cycles", &[("system", "base")]);
        r.observe(h, 100);
        r.observe(h, 100_000);
        let text = r.prometheus();
        assert!(text.contains("# TYPE jobs_total counter"));
        assert!(text.contains("jobs_total{system=\"base\"} 7"));
        assert!(text.contains("utilisation 0.75"));
        assert!(text.contains("# TYPE latency_cycles histogram"));
        assert!(text.contains("latency_cycles_bucket{system=\"base\",le=\"+Inf\"} 2"));
        assert!(text.contains("latency_cycles_sum{system=\"base\"} 100100"));
        assert!(text.contains("latency_cycles_count{system=\"base\"} 2"));
        // Every line is either a comment or `name[{labels}] value`.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split(' ').count() == 2,
                "{line}"
            );
        }
    }

    #[test]
    fn label_values_are_escaped() {
        let mut r = Registry::new();
        let c = r.counter("c", &[("k", "a\"b\\c")]);
        r.inc(c);
        assert!(r.prometheus().contains("c{k=\"a\\\"b\\\\c\"} 1"));
    }

    /// The text-exposition grammar, as enforced by this module: metric
    /// names `[a-zA-Z_:][a-zA-Z0-9_:]*`, label names without colons,
    /// label values with `\\`/`\"`/`\n` escaped, one sample per line,
    /// and a final line feed.
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

    #[test]
    fn adversarial_metric_and_label_names_are_sanitised() {
        let mut r = Registry::new();
        let dotted = r.counter("service.jobs-completed", &[("host.name", "node-1")]);
        r.add(dotted, 2);
        let leading_digit = r.gauge("99th_percentile", &[("λ", "poisson")]);
        r.set(leading_digit, 1.5);
        let empty = r.counter("", &[]);
        r.inc(empty);
        let spaced = r.histogram("job latency (cycles)", &[("le ", "x")]);
        r.observe(spaced, 12);
        let text = r.prometheus();
        assert!(
            text.contains("service_jobs_completed{host_name=\"node-1\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("_99th_percentile{_=\"poisson\"} 1.5"),
            "{text}"
        );
        assert!(text.contains("\n_ 1\n"), "{text}");
        assert!(
            text.contains("job_latency__cycles__count{le_=\"x\"} 1"),
            "{text}"
        );
        assert_conformant(&text);
    }

    #[test]
    fn non_finite_gauges_render_as_spec_tokens() {
        let mut r = Registry::new();
        let nan = r.gauge("g_nan", &[]);
        r.set(nan, f64::NAN);
        let pos = r.gauge("g_pos", &[]);
        r.set(pos, f64::INFINITY);
        let neg = r.gauge("g_neg", &[]);
        r.set(neg, f64::NEG_INFINITY);
        let text = r.prometheus();
        assert!(text.contains("g_nan NaN\n"), "{text}");
        assert!(text.contains("g_pos +Inf\n"), "{text}");
        assert!(text.contains("g_neg -Inf\n"), "{text}");
        assert_conformant(&text);
    }

    #[test]
    fn help_lines_precede_type_and_escape_only_backslash_and_newline() {
        let mut r = Registry::new();
        let c = r.counter("jobs_total", &[("system", "base")]);
        r.inc(c);
        r.help(
            "jobs_total",
            "Jobs \"completed\" per system\nsecond line \\ done",
        );
        let text = r.prometheus();
        let help_at = text
            .find("# HELP jobs_total Jobs \"completed\" per system\\nsecond line \\\\ done\n")
            .expect(&text);
        let type_at = text.find("# TYPE jobs_total counter").unwrap();
        assert!(help_at < type_at, "{text}");
        assert_conformant(&text);
        // Unregistered families render without a HELP line.
        assert_eq!(text.matches("# HELP").count(), 1);
    }

    #[test]
    fn exposition_ends_with_exactly_one_line_feed() {
        let mut r = Registry::new();
        assert_eq!(r.prometheus(), "", "empty registry renders empty");
        let c = r.counter("c_total", &[]);
        r.inc(c);
        let text = r.prometheus();
        assert!(text.ends_with('\n') && !text.ends_with("\n\n"), "{text:?}");
        assert_conformant(&text);
    }
}
