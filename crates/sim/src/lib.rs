#![warn(missing_docs)]

//! Discrete-event simulator for the paper's quad-core system (Section V).
//!
//! The paper evaluated its scheduler by "simulating different systems using
//! MATLAB" with these event semantics, all reproduced here:
//!
//! * benchmarks arrive at precomputed times and enter a FIFO **ready
//!   queue**;
//! * "the scheduler was invoked to make scheduling decisions each time a
//!   benchmark arrived or when a core became idle";
//! * a stalled application "is enqueued back into the ready queue";
//! * there is **no preemption or priority**;
//! * idle cores burn leakage energy continuously — the idle energy the
//!   Section IV.E decision trades against.
//!
//! The scheduling policy itself is pluggable through the [`Scheduler`]
//! trait; the four systems of the paper's evaluation live in the
//! `hetero-core` crate.
//!
//! # Example: a trivial any-idle-core scheduler
//!
//! ```
//! use energy_model::EnergyBreakdown;
//! use multicore_sim::{
//!     CoreId, CoreIndex, Decision, Job, JobExecution, Scheduler, Simulator,
//! };
//! use workloads::{Arrival, ArrivalPlan, BenchmarkId};
//!
//! struct AnyIdle;
//!
//! impl Scheduler for AnyIdle {
//!     fn schedule(&mut self, _job: &Job, cores: &CoreIndex, _now: u64) -> Decision {
//!         match cores.first_idle() {
//!             Some(core) => Decision::run(
//!                 core,
//!                 JobExecution { cycles: 1_000, energy: EnergyBreakdown::new() },
//!             ),
//!             None => Decision::Stall,
//!         }
//!     }
//!
//!     fn idle_power_nj_per_cycle(&self, _core: CoreId) -> f64 {
//!         0.01
//!     }
//! }
//!
//! let plan = ArrivalPlan::uniform(100, 50_000, 5, 42);
//! let metrics = Simulator::new(4).run(&plan, &mut AnyIdle);
//! assert_eq!(metrics.jobs_completed, 100);
//! ```

mod core_index;
pub mod faults;
mod idle;
mod job;
mod metrics;
mod scheduler;
mod simulator;
mod trace;

pub use core_index::{CoreIndex, CoreSet};

pub use faults::{
    tier_cell, AttemptFault, DegradedComponent, FallbackLevel, FaultConfig, FaultKind, FaultPlan,
    FaultStats, FaultedRun, PredictorHealth, ServingTier, ShedReason, TierCell,
};
pub use job::{Job, JobExecution};
pub use metrics::{ClassStats, RunMetrics};
pub use scheduler::{BusyInfo, CoreId, CoreView, Decision, Scheduler};
pub use simulator::{QueueDiscipline, Simulator};
pub use trace::{
    ledger_divergences, Audit, Fingerprint, IdleCores, LedgerAuditor, NullSink, PlacementKind,
    RecordingSink, StallPurityChecked, TraceEvent, TraceSink,
};
