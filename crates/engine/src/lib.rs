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
//! One entry point drives every run: [`run`] takes a [`RunSpec`] —
//! the [`EngineConfig`] plus optional [`overload`] and [`observe`]
//! sections — and returns one [`Outcome`] or a typed [`EngineError`].
//! Each concern is a module, not another entry point:
//!
//! * `engine` — the [`EngineSink`]: a [`Snapshot`] ring with windowed
//!   p99 latency, throughput, energy-per-job and utilisation per span,
//!   and [`SloPolicy`] budgets that pass or fail the run;
//! * [`overload`] — admission control, brownout and a predictor circuit
//!   breaker (DESIGN.md §15);
//! * [`observe`] and [`serve`] — the live observability plane: causal
//!   spans for Perfetto export, burn-rate alerts that can floor the
//!   serving tier, and a std-only HTTP scrape endpoint (DESIGN.md §16);
//! * [`export`] — CSV/markdown renderings of a report.
//!
//! **Fidelity:** every `Simulator` entry point drives one event loop
//! ([`Simulator::run_stream`](multicore_sim::Simulator::run_stream) feeds
//! it lazily), so a streamed run over a pre-materialised plan returns
//! `RunMetrics` bit-identical to the batch driver, and a disabled
//! governor or plane changes nothing — property-tested in
//! `crates/bench/tests`.
//!
//! See DESIGN.md §14 for the architecture.

mod engine;
mod runner;
mod slo;
mod snapshot;

pub mod export;
pub mod observe;
pub mod overload;
pub mod serve;

pub use engine::{EngineConfig, EngineReport, EngineSink};
pub use observe::{AlertReport, AlertRuleOutcome, ObserveConfig, ObservedSink};
pub use overload::{
    AdmissionGate, BreakerConfig, BreakerState, BrownoutConfig, GovernorHandle, OverloadConfig,
    OverloadReport, OverloadSink, ShedPolicy, TokenBucketConfig,
};
pub use runner::{run, EngineError, Outcome, RunSpec};
pub use serve::{Response, ScrapeServer, ServeStats};
pub use slo::{SloCheck, SloPolicy, SloReport};
pub use snapshot::Snapshot;
