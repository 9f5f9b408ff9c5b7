#![warn(missing_docs)]

//! Trace-driven simulator for the configurable L1 caches of the paper
//! *Dynamic Scheduling on Heterogeneous Multicores* (DATE 2019).
//!
//! The paper's quad-core system gives each core a private L1 cache whose
//! **total size is fixed per core** (2, 4, 8, 8 KB) while the **line size**
//! (16/32/64 B) and **associativity** (1/2/4-way) are runtime-configurable.
//! Table 1 of the paper enumerates the 18 valid `size_assoc_line`
//! combinations; [`design_space`] reproduces that table exactly.
//!
//! This crate provides:
//!
//! * [`CacheConfig`] and its component newtypes ([`CacheSizeKb`],
//!   [`Associativity`], [`LineSize`]) with the Table 1 validity rule;
//! * [`Cache`], a set-associative cache model with true-LRU replacement and
//!   write-allocate semantics, sufficient to produce the hit/miss statistics
//!   that the paper's energy model (its Figure 4) consumes;
//! * [`Trace`]/[`Access`], an explicit memory-reference trace representation,
//!   plus [`simulate`] and [`sweep`] drivers.
//!
//! The paper gathered these statistics with SimpleScalar; a trace-driven
//! set-associative model produces the same quantities (hits, misses, and the
//! derived miss cycles) for the cache class SimpleScalar models, so it is a
//! faithful substitute for this workload.
//!
//! # Example
//!
//! ```
//! use cache_sim::{Access, Cache, CacheConfig, Trace};
//!
//! # fn main() -> Result<(), cache_sim::ConfigError> {
//! let config = CacheConfig::parse("4KB_2W_32B")?;
//! let mut cache = Cache::new(config);
//! let trace: Trace = (0..1024u64).map(|i| Access::read(i * 4)).collect();
//! let stats = cache.run(&trace);
//! assert_eq!(stats.accesses(), 1024);
//! assert!(stats.miss_rate() < 0.2);
//! # Ok(())
//! # }
//! ```

mod cache;
mod config;
mod fused;
mod geometry;
mod hierarchy;
mod stats;
mod trace;

pub use cache::{Cache, ReplacementPolicy};
pub use config::{
    design_space, Associativity, CacheConfig, CacheSizeKb, ConfigError, LineSize, BASE_CONFIG,
    DESIGN_SPACE_LEN,
};
pub use fused::{sweep, sweep_hierarchy, sweep_with_policy};
pub use geometry::{Geometry, GeometryError};
pub use hierarchy::{simulate_hierarchy, CacheHierarchy, HierarchyStats, HitLevel};
pub use stats::CacheStats;
pub use trace::{simulate, Access, AccessKind, Trace};
