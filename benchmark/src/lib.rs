//! The hetero-sched benchmark: four workloads driven through the public
//! API of the workspace crates, reporting end-to-end metrics with tracing
//! off and per-layer metrics from a separate traced run. See README.md.

pub mod compare;
pub mod host;
pub mod report;
pub mod run;
pub mod scrape;
pub mod stack;
pub mod stats;
pub mod trace;
