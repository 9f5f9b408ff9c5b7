//! The per-configuration reference sweeps: one full cold replay per
//! Table 1 configuration. The single-pass fused sweeps in `cache-sim`
//! are property-tested equal to these, and the perf pipeline times the
//! suite oracle build against them.

use cache_sim::{
    design_space, simulate, simulate_hierarchy, Cache, CacheConfig, CacheStats, Geometry,
    HierarchyStats, ReplacementPolicy, Trace, DESIGN_SPACE_LEN,
};

/// Reference implementation of [`sweep`](cache_sim::sweep): one full
/// [`simulate`] replay per configuration. Kept for the fused-equivalence
/// property tests and as the timing baseline of the perf pipeline.
pub fn sweep_serial(trace: &Trace) -> Vec<(CacheConfig, CacheStats)> {
    let mut results = Vec::with_capacity(DESIGN_SPACE_LEN);
    for config in design_space() {
        results.push((config, simulate(config, trace)));
    }
    results
}

/// Reference implementation of
/// [`sweep_with_policy`](cache_sim::sweep_with_policy): one replay per
/// configuration.
pub fn sweep_with_policy_serial(
    trace: &Trace,
    policy: ReplacementPolicy,
) -> Vec<(CacheConfig, CacheStats)> {
    design_space()
        .map(|config| (config, Cache::with_policy(config, policy).run(trace)))
        .collect()
}

/// Reference implementation of
/// [`sweep_hierarchy`](cache_sim::sweep_hierarchy): one full hierarchy
/// replay per configuration.
pub fn sweep_hierarchy_serial(
    l2_geometry: Geometry,
    trace: &Trace,
) -> Vec<(CacheConfig, HierarchyStats)> {
    design_space()
        .map(|config| (config, simulate_hierarchy(config, l2_geometry, trace)))
        .collect()
}
