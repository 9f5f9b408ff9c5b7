#![warn(missing_docs)]

//! The streaming service engine: long-running, bounded-memory scheduler
//! runs under open-loop load.
//!
//! The batch harness in `hetero-bench` materialises an entire
//! [`ArrivalPlan`](workloads::ArrivalPlan) and retains every per-job
//! metric, which caps a run at what fits in memory. This crate turns the
//! same simulator into a *service*: arrivals stream from composable
//! open-loop processes ([`workloads::OpenLoop`]), jobs are retired from
//! the [`MetricsSink`](hetero_telemetry::MetricsSink) as they complete,
//! and finished time-series windows are folded into periodic
//! [`Snapshot`]s and discarded — so steady-state memory is
//! O(cores + in-flight jobs + kept snapshots), independent of how many
//! jobs flow through. A single process pushes 10M+ jobs through a system
//! this way (proven by the gated `engine_stream` perf stage).
//!
//! On top of the bounded-memory run sits a harness in the style of
//! open-loop load generators: a [`Snapshot`] ring with windowed p99
//! latency, throughput, energy-per-job and utilisation per span;
//! [`SloPolicy`] budgets (p99 latency, energy per job, throughput floor)
//! that pass or fail the run; and CSV/markdown exporters
//! ([`export`]) feeding the `engine` bin's JSON artifact and
//! `engine compare` diff.
//!
//! **Fidelity:** every `Simulator` entry point drives one event loop
//! ([`Simulator::run_stream`](multicore_sim::Simulator::run_stream) feeds
//! it lazily), so a streamed run over a pre-materialised plan returns
//! `RunMetrics` bit-identical to the batch driver — property-tested in
//! `crates/bench/tests/engine_properties.rs`.
//!
//! See DESIGN.md §14 for the architecture.

//! On top of the governed run sits a *live observability plane*
//! ([`observe`]): per-job causal spans assembled for Perfetto export,
//! an SLO burn-rate alert engine that can engage a serving-tier floor,
//! and a std-only HTTP scrape endpoint ([`serve`]) answering
//! `/metrics`, `/health` and `/snapshot` during the run. See DESIGN.md
//! §16.

mod engine;
mod slo;
mod snapshot;

pub mod export;
pub mod observe;
pub mod overload;
pub mod serve;

pub use engine::{run_streaming, EngineConfig, EngineReport, EngineSink, StreamOutcome};
pub use observe::{
    run_streaming_observed, AlertReport, AlertRuleOutcome, ObserveConfig, ObservedOutcome,
    ObservedSink,
};
pub use overload::{
    run_streaming_governed, AdmissionGate, BreakerConfig, BreakerState, BrownoutConfig,
    GovernedOutcome, GovernorHandle, OverloadConfig, OverloadReport, OverloadSink, ShedPolicy,
    TokenBucketConfig,
};
pub use serve::{Response, ScrapeServer, ServeStats};
pub use slo::{SloCheck, SloPolicy, SloReport};
pub use snapshot::Snapshot;
