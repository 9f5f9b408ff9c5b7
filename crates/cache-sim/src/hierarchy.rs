//! Two-level cache hierarchies: a configurable L1 backed by the private,
//! non-configurable L2 of the paper's Figure 1 architecture.
//!
//! The paper's energy model (its Figure 4) treats every L1 miss as an
//! off-chip access; this module is the "additional levels of private …
//! caches" extension the paper lists as future work. The L2 filters L1
//! misses: only L2 misses go off-chip, which the extended energy model in
//! `energy-model::l2` prices accordingly.

use crate::cache::Cache;
use crate::config::CacheConfig;
use crate::geometry::Geometry;
use crate::stats::CacheStats;
use crate::trace::{Access, Trace};

/// Where an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitLevel {
    /// Satisfied by the L1.
    L1,
    /// Missed L1, satisfied by the L2.
    L2,
    /// Missed both levels: off-chip memory access.
    Memory,
}

/// Statistics of one hierarchy run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// L1 counters (every CPU access).
    pub l1: CacheStats,
    /// L2 counters (only L1 misses reach it).
    pub l2: CacheStats,
}

impl HierarchyStats {
    /// Accesses that went off-chip (L2 misses).
    pub fn memory_accesses(&self) -> u64 {
        self.l2.misses()
    }

    /// Global miss rate: off-chip accesses per CPU access.
    pub fn global_miss_rate(&self) -> f64 {
        let accesses = self.l1.accesses();
        if accesses == 0 {
            0.0
        } else {
            self.memory_accesses() as f64 / accesses as f64
        }
    }
}

/// A configurable L1 backed by a fixed-geometry L2 (both private, as in
/// the paper's Figure 1).
///
/// ```
/// use cache_sim::{Access, CacheConfig, CacheHierarchy, Geometry, HitLevel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut hierarchy =
///     CacheHierarchy::new(CacheConfig::parse("2KB_1W_16B")?, Geometry::typical_l2());
/// assert_eq!(hierarchy.access(Access::read(0x100)), HitLevel::Memory); // cold everywhere
/// assert_eq!(hierarchy.access(Access::read(0x100)), HitLevel::L1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: Cache,
    l2: Cache,
}

impl CacheHierarchy {
    /// An empty hierarchy.
    pub fn new(l1_config: CacheConfig, l2_geometry: Geometry) -> Self {
        CacheHierarchy {
            l1: Cache::new(l1_config),
            l2: Cache::from_geometry(l2_geometry),
        }
    }

    /// The L1's configuration.
    pub fn l1_config(&self) -> CacheConfig {
        self.l1
            .config()
            .expect("L1 is always built from a configuration")
    }

    /// The L2's geometry.
    pub fn l2_geometry(&self) -> Geometry {
        self.l2.geometry()
    }

    /// Perform one access, reporting which level satisfied it. The L2 is
    /// consulted (and filled) only on L1 misses.
    pub fn access(&mut self, access: Access) -> HitLevel {
        if self.l1.access(access) {
            HitLevel::L1
        } else if self.l2.access(access) {
            HitLevel::L2
        } else {
            HitLevel::Memory
        }
    }

    /// Replay a trace, returning this run's statistics.
    pub fn run(&mut self, trace: &Trace) -> HierarchyStats {
        let before = self.stats();
        for &access in trace.iter() {
            self.access(access);
        }
        let after = self.stats();
        HierarchyStats {
            l1: after.l1.since(&before.l1),
            l2: after.l2.since(&before.l2),
        }
    }

    /// Cumulative statistics since construction or [`reset`](Self::reset).
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1: self.l1.stats(),
            l2: self.l2.stats(),
        }
    }

    /// Invalidate both levels and zero the statistics.
    pub fn reset(&mut self) {
        self.l1.reset();
        self.l2.reset();
    }
}

/// Replay `trace` through a cold hierarchy.
pub fn simulate_hierarchy(
    l1_config: CacheConfig,
    l2_geometry: Geometry,
    trace: &Trace,
) -> HierarchyStats {
    CacheHierarchy::new(l1_config, l2_geometry).run(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep_hierarchy;
    use crate::trace::simulate;

    fn l1() -> CacheConfig {
        CacheConfig::parse("2KB_1W_16B").unwrap()
    }

    #[test]
    fn l2_only_sees_l1_misses() {
        let trace: Trace = (0..4096u64)
            .map(|i| Access::read((i * 97) % 65_536))
            .collect();
        let stats = simulate_hierarchy(l1(), Geometry::typical_l2(), &trace);
        assert_eq!(stats.l1.accesses(), 4096);
        assert_eq!(stats.l2.accesses(), stats.l1.misses());
        assert!(stats.l2.misses() <= stats.l1.misses());
    }

    #[test]
    fn l1_behaviour_is_unchanged_by_the_l2() {
        let trace: Trace = (0..2000u64)
            .map(|i| Access::read((i * 53) % 16_384))
            .collect();
        let solo = simulate(l1(), &trace);
        let stacked = simulate_hierarchy(l1(), Geometry::typical_l2(), &trace);
        assert_eq!(stacked.l1, solo, "the L2 must be invisible to the L1");
    }

    #[test]
    fn big_l2_absorbs_l1_capacity_misses() {
        // Working set of 16 KB: thrashes every L1, fits easily in a 64 KB
        // L2, so off-chip traffic collapses to cold misses after warm-up.
        let lines = 16_384 / 16;
        let trace: Trace = (0..lines as u64)
            .cycle()
            .take(lines * 8)
            .map(|i| Access::read(i * 16))
            .collect();
        let stats = simulate_hierarchy(l1(), Geometry::typical_l2(), &trace);
        assert!(
            stats.l1.miss_rate() > 0.9,
            "L1 must thrash: {}",
            stats.l1.miss_rate()
        );
        // Off-chip traffic collapses to the L2's cold misses: one per 64 B
        // L2 line of the 16 KB working set.
        let l2_cold = 16_384 / u64::from(Geometry::typical_l2().line_bytes());
        assert_eq!(stats.memory_accesses(), l2_cold, "L2 absorbs all reuse");
    }

    #[test]
    fn levels_report_where_hits_land() {
        let mut hierarchy = CacheHierarchy::new(l1(), Geometry::typical_l2());
        assert_eq!(hierarchy.access(Access::read(0)), HitLevel::Memory);
        assert_eq!(hierarchy.access(Access::read(0)), HitLevel::L1);
        // Evict line 0 from the direct-mapped L1 with a conflicting line...
        let conflict = u64::from(hierarchy.l1_config().num_sets()) * 16;
        assert_eq!(hierarchy.access(Access::read(conflict)), HitLevel::Memory);
        // ...line 0 is gone from L1 but still resident in L2.
        assert_eq!(hierarchy.access(Access::read(0)), HitLevel::L2);
    }

    #[test]
    fn global_miss_rate_bounded_by_l1_miss_rate() {
        let trace: Trace = (0..3000u64)
            .map(|i| Access::read((i * 31) % 32_768))
            .collect();
        let stats = simulate_hierarchy(l1(), Geometry::typical_l2(), &trace);
        assert!(stats.global_miss_rate() <= stats.l1.miss_rate());
    }

    #[test]
    fn sweep_covers_all_18_l1_configs() {
        let trace: Trace = (0..500u64).map(|i| Access::read(i * 32)).collect();
        let results = sweep_hierarchy(Geometry::typical_l2(), &trace);
        assert_eq!(results.len(), crate::DESIGN_SPACE_LEN);
    }

    #[test]
    fn reset_clears_both_levels() {
        let mut hierarchy = CacheHierarchy::new(l1(), Geometry::typical_l2());
        hierarchy.access(Access::read(64));
        hierarchy.reset();
        assert_eq!(hierarchy.stats().l1.accesses(), 0);
        assert_eq!(hierarchy.access(Access::read(64)), HitLevel::Memory);
    }
}
