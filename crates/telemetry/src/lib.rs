//! Operational telemetry for the heterogeneous-multicore scheduler.
//!
//! Composable layers, allocation-free on their hot paths:
//!
//! * [`Histogram`] — log-linear HDR-style histogram with a bounded
//!   relative error of `1/`[`SUB_BUCKETS`] (~3.1 %), exact sums and
//!   extremes, and lossless merging.
//! * [`MetricsSink`] — a [`multicore_sim::TraceSink`] that folds the
//!   simulator's typed event stream into per-core time-series windows,
//!   run-wide latency/energy/stall histograms, and run totals, without
//!   retaining the raw events. Attaching it never changes a run's
//!   `RunMetrics` (property-tested bit-identical to the reference loop).
//!   Its [`TelemetryReport::prometheus`] renders the Prometheus text
//!   exposition that the engine's `/metrics` endpoint serves.
//! * [`SpanRecorder`] / [`Span`] — RAII wall-clock profiling of the
//!   offline pipeline stages (characterisation, oracle build, ensemble
//!   training, prediction), pluggable into
//!   [`hetero_core::StageObserver`] hooks.
//! * [`SpanAssembler`] — a [`multicore_sim::TraceSink`] that folds the
//!   event stream into causal per-job lifecycle spans and per-core
//!   occupancy spans, the data model behind the Chrome-trace (Perfetto)
//!   export in `hetero-bench`.
//! * [`BurnEngine`] — multi-window SLO burn-rate alerting (pending →
//!   firing → resolved with hysteresis) over the live completion
//!   stream, surfaced by the engine's `/health` endpoint.
//!
//! The `telemetry` binary in `hetero-bench` drives all of this end to
//! end and exports `results/TELEMETRY_*.json` plus Prometheus text; the
//! `sim_metrics_overhead` stage of `perf_pipeline` gates the sink's
//! overhead against the untraced reference loop.

#![warn(missing_docs)]

mod assemble;
mod burn;
mod histogram;
mod prometheus;
mod sink;
mod span;

pub use assemble::{CoreSpan, CoreSpanKind, JobPhase, JobSpan, Mark, SpanAssembler, SpanClose};
pub use burn::{AlertState, AlertTransition, BurnEngine, BurnRateRule};
pub use histogram::{Histogram, SUB_BUCKETS};
pub use sink::{CorePoint, MetricsSink, RunTotals, SeriesPoint, TelemetryReport};
pub use span::{Span, SpanRecord, SpanRecorder};
