#![warn(missing_docs)]

//! The retained reference implementations, behind one oracle boundary.
//!
//! Each production path in the workspace was once a plain, obviously
//! correct implementation that an optimised one replaced. The plain
//! versions live here, unchanged, one module per crate they check:
//!
//! * [`sim`] — the linear-scan event loop every `Simulator` entry point
//!   must match bit for bit;
//! * [`ann`] — the legacy allocating f64 ANN engine the flat-tensor
//!   engine must match bit for bit;
//! * [`cache`] — the per-configuration cache sweeps the fused sweeps
//!   must match;
//! * [`core`] — the serial suite-oracle build.
//!
//! The property suites compare against these, and the `perf_pipeline`
//! ratio gates time against them. No production path calls them: this
//! crate is a dev-dependency of the crates it checks and a normal
//! dependency of `hetero-bench` only, which `scripts/check.sh` enforces.

pub mod ann;
pub mod cache;
pub mod core;
pub mod sim;
