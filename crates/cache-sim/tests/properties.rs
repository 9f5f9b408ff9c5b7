//! Property-based tests for the cache simulator.
//!
//! These check structural invariants of the set-associative LRU model over
//! randomly generated traces, including agreement with an independent,
//! obviously-correct reference model.

use cache_sim::{
    design_space, simulate, sweep, sweep_hierarchy, sweep_with_policy, Access, Cache, CacheConfig,
    Geometry, ReplacementPolicy, Trace,
};
use hetero_oracles::cache::{sweep_hierarchy_serial, sweep_serial, sweep_with_policy_serial};
use proptest::prelude::*;

/// An intentionally naive reference cache: per-set `Vec` of tags ordered by
/// recency (front = MRU). Shares no code with the real implementation.
struct ReferenceCache {
    sets: Vec<Vec<u64>>,
    ways: usize,
    line_bytes: u64,
}

impl ReferenceCache {
    fn new(config: CacheConfig) -> Self {
        ReferenceCache {
            sets: vec![Vec::new(); config.num_sets() as usize],
            ways: config.associativity().ways() as usize,
            line_bytes: u64::from(config.line().bytes()),
        }
    }

    /// Returns `true` on hit.
    fn access(&mut self, addr: u64) -> bool {
        let block = addr / self.line_bytes;
        let set_index = (block % self.sets.len() as u64) as usize;
        let tag = block / self.sets.len() as u64;
        let set = &mut self.sets[set_index];
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            let tag = set.remove(pos);
            set.insert(0, tag);
            true
        } else {
            set.insert(0, tag);
            set.truncate(self.ways);
            false
        }
    }
}

fn arbitrary_trace(max_len: usize, addr_bits: u32) -> impl Strategy<Value = Trace> {
    prop::collection::vec((0u64..(1 << addr_bits), prop::bool::ANY), 0..max_len).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(addr, write)| {
                if write {
                    Access::write(addr)
                } else {
                    Access::read(addr)
                }
            })
            .collect()
    })
}

fn arbitrary_config() -> impl Strategy<Value = CacheConfig> {
    let configs: Vec<CacheConfig> = design_space().collect();
    prop::sample::select(configs)
}

proptest! {
    /// The production cache and the naive reference model classify every
    /// access identically.
    #[test]
    fn agrees_with_reference_model(
        config in arbitrary_config(),
        trace in arbitrary_trace(600, 15),
    ) {
        let mut real = Cache::new(config);
        let mut reference = ReferenceCache::new(config);
        for &access in trace.iter() {
            prop_assert_eq!(
                real.access(access),
                reference.access(access.addr),
                "divergence at {:?} under {}", access, config
            );
        }
    }

    /// hits + misses always equals the number of accesses.
    #[test]
    fn accounting_is_conserved(
        config in arbitrary_config(),
        trace in arbitrary_trace(500, 16),
    ) {
        let stats = simulate(config, &trace);
        prop_assert_eq!(stats.accesses(), trace.len() as u64);
        prop_assert_eq!(stats.hits() + stats.misses(), trace.len() as u64);
        prop_assert_eq!(
            stats.read_hits() + stats.read_misses(),
            trace.reads() as u64
        );
        prop_assert_eq!(
            stats.write_hits() + stats.write_misses(),
            trace.writes() as u64
        );
    }

    /// The number of misses is at least the number of distinct lines touched
    /// (every distinct line has at least one cold miss) and at most the
    /// trace length.
    #[test]
    fn misses_bounded_by_working_set_and_length(
        config in arbitrary_config(),
        trace in arbitrary_trace(500, 16),
    ) {
        let stats = simulate(config, &trace);
        let distinct = trace.working_set_lines(config.line().bytes()) as u64;
        prop_assert!(stats.misses() >= distinct);
        prop_assert!(stats.misses() <= trace.len() as u64);
    }

    /// Simulation is a pure function of (config, trace).
    #[test]
    fn simulation_is_deterministic(
        config in arbitrary_config(),
        trace in arbitrary_trace(300, 14),
    ) {
        prop_assert_eq!(simulate(config, &trace), simulate(config, &trace));
    }

    /// With identical geometry except associativity, a fully-associative-er
    /// cache never has more misses on a *single-pass sequential* trace
    /// (LRU on sequential scans degenerates to cold misses only).
    #[test]
    fn sequential_scan_misses_depend_only_on_line_size(
        start in 0u64..1024,
        len in 1usize..2000,
    ) {
        let trace: Trace = (0..len as u64).map(|i| Access::read(start + i * 4)).collect();
        for config in design_space() {
            let stats = simulate(config, &trace);
            let expected = trace.working_set_lines(config.line().bytes()) as u64;
            prop_assert_eq!(
                stats.misses(), expected,
                "sequential scan should only cold-miss under {}", config
            );
        }
    }

    /// The single-pass fused sweep is **bit-identical** to 18 independent
    /// per-configuration replays — the determinism contract of the fused
    /// characterisation pipeline.
    #[test]
    fn fused_sweep_matches_serial_sweep(trace in arbitrary_trace(600, 18)) {
        prop_assert_eq!(sweep(&trace), sweep_serial(&trace));
    }

    /// Fused/serial equivalence also holds for the non-LRU replacement
    /// policies (FIFO's fill-order state and Random's RNG stream are both
    /// replicated lane-for-lane).
    #[test]
    fn fused_policy_sweep_matches_serial(
        trace in arbitrary_trace(400, 16),
        seed in 0u64..1000,
    ) {
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Random { seed },
        ] {
            prop_assert_eq!(
                sweep_with_policy(&trace, policy),
                sweep_with_policy_serial(&trace, policy),
                "policy {:?}", policy
            );
        }
    }

    /// Two-level fused sweeps match the serial hierarchy replays at both
    /// levels (the L2 lane must see exactly the L1 misses, in order).
    #[test]
    fn fused_hierarchy_sweep_matches_serial(trace in arbitrary_trace(400, 18)) {
        let l2 = Geometry::typical_l2();
        prop_assert_eq!(
            sweep_hierarchy(l2, &trace),
            sweep_hierarchy_serial(l2, &trace)
        );
    }

    /// Evictions never exceed misses, and no eviction can happen before the
    /// cache is at capacity.
    #[test]
    fn evictions_bounded_by_misses(
        config in arbitrary_config(),
        trace in arbitrary_trace(500, 16),
    ) {
        let stats = simulate(config, &trace);
        prop_assert!(stats.evictions() <= stats.misses());
        let capacity = u64::from(config.num_lines());
        prop_assert!(
            stats.evictions() <= stats.misses().saturating_sub(capacity.min(stats.misses())) + capacity,
        );
        if stats.misses() <= capacity {
            // Cannot have evicted anything if the fills fit entirely.
            // (Only guaranteed per-set in general; globally it holds when
            // misses <= ways because no set can overflow.)
            if stats.misses() <= u64::from(config.associativity().ways()) {
                prop_assert_eq!(stats.evictions(), 0);
            }
        }
    }
}

/// A conflict-heavy mixed read/write trace touching a few address
/// regions, long enough to exercise evictions in every lane and to
/// span multiple tiles.
fn mixed_trace(len: u64) -> Trace {
    (0..len)
        .map(|i| {
            let addr = (i.wrapping_mul(2654435761) ^ (i << 7)) % 262_144;
            if i % 5 == 0 {
                Access::write(addr)
            } else {
                Access::read(addr)
            }
        })
        .collect()
}

#[test]
fn fused_matches_serial_lru() {
    let trace = mixed_trace(20_000);
    assert_eq!(sweep(&trace), sweep_serial(&trace));
}

#[test]
fn fused_matches_serial_for_every_policy() {
    let trace = mixed_trace(8_000);
    for policy in [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::Random { seed: 0xDEAD_BEEF },
    ] {
        assert_eq!(
            sweep_with_policy(&trace, policy),
            sweep_with_policy_serial(&trace, policy),
            "{policy:?}"
        );
    }
}

#[test]
fn fused_hierarchy_matches_serial() {
    let trace = mixed_trace(12_000);
    assert_eq!(
        sweep_hierarchy(Geometry::typical_l2(), &trace),
        sweep_hierarchy_serial(Geometry::typical_l2(), &trace)
    );
}

#[test]
fn fused_hierarchy_matches_serial_on_an_odd_l2() {
    // A non-power-of-two set count exercises the modulo indexing path.
    let l2 = Geometry::new(3, 2, 32).unwrap();
    let trace = mixed_trace(4_000);
    assert_eq!(
        sweep_hierarchy(l2, &trace),
        sweep_hierarchy_serial(l2, &trace)
    );
}

#[test]
fn tile_boundaries_are_invisible() {
    // Lengths straddling the block size: 0, 1, BLOCK-1, BLOCK,
    // BLOCK+1, several blocks plus a remainder.
    for len in [0, 1, 1023, 1024, 1025, 5000] {
        let trace = mixed_trace(len as u64);
        assert_eq!(sweep(&trace), sweep_serial(&trace), "len {len}");
    }
}

#[test]
fn sentinel_tags_survive_extreme_addresses() {
    // Addresses near u64::MAX must still be representable tags.
    let trace: Trace = (0..64u64)
        .map(|i| Access::read(u64::MAX - i * 16))
        .collect();
    assert_eq!(sweep(&trace), sweep_serial(&trace));
}
