#![warn(missing_docs)]

//! # hetero-sched
//!
//! Facade crate for the *Dynamic Scheduling on Heterogeneous Multicores*
//! (DATE 2019) reproduction. It re-exports every workspace crate so that
//! examples and downstream users can depend on a single package:
//!
//! * [`cache_sim`] — configurable set-associative L1 cache simulator
//!   (the Table 1 design space);
//! * [`energy_model`] — the paper's Figure 4 energy model with CACTI-like
//!   0.18 µm per-access energies;
//! * [`workloads`] — synthetic EEMBC-like embedded kernel suite with
//!   deterministic traces and hardware-counter-style features;
//! * [`tinyann`] — from-scratch feedforward neural network with bagging;
//! * [`multicore_sim`] — discrete-event heterogeneous multicore simulator;
//! * [`hetero_core`] — the paper's contribution: ANN best-core prediction,
//!   the Figure 5 cache tuning heuristic, the Section IV.E
//!   energy-advantageous stall decision, and the four evaluated systems;
//! * [`hetero_telemetry`] — observability: log-linear histograms, the
//!   per-core time-series [`MetricsSink`](hetero_telemetry::MetricsSink)
//!   and its report's Prometheus text exposition, and the span profiler;
//! * [`hetero_engine`] — the streaming service engine: open-loop arrival
//!   streams feed [`run`](hetero_engine::run), which folds the run into
//!   bounded-memory snapshots and SLO verdicts — optionally under an
//!   overload governor and a live observability plane — with
//!   CSV/markdown exports.
//!
//! # Quickstart
//!
//! ```
//! use hetero_sched::cache_sim::{design_space, CacheConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let base = CacheConfig::parse("8KB_4W_64B")?;
//! assert_eq!(design_space().count(), 18);
//! assert!(design_space().any(|c| c == base));
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/quickstart.rs` for an end-to-end scheduling run.

pub use cache_sim;
pub use energy_model;
pub use hetero_core;
pub use hetero_engine;
pub use hetero_telemetry;
pub use multicore_sim;
pub use tinyann;
pub use workloads;
