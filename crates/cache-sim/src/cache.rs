//! Set-associative cache model with configurable replacement.

use crate::config::CacheConfig;
use crate::geometry::Geometry;
use crate::stats::CacheStats;
use crate::trace::{Access, AccessKind, Trace};

/// Victim-selection policy within a set.
///
/// The paper's configurable-cache lineage assumes LRU; the alternatives
/// exist for the replacement-policy ablation (`hetero-bench --bin
/// replacement`), which checks how much of the design-space structure
/// depends on that assumption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementPolicy {
    /// True least-recently-used (the paper's assumption).
    #[default]
    Lru,
    /// First-in first-out: eviction order follows fill order, hits do not
    /// refresh a line.
    Fifo,
    /// Pseudo-random victim selection, deterministic per seed.
    Random {
        /// PRNG seed (SplitMix64).
        seed: u64,
    },
}

/// A configurable set-associative L1 data cache.
///
/// The model is *timeless*: it classifies each access as a hit or a miss and
/// leaves all timing/energy consequences to the energy model (the paper's
/// Figure 4 derives `miss cycles` from the miss count analytically). Lines
/// are filled on both read and write misses (write-allocate), matching the
/// write policy assumed by the paper's configurable-cache lineage
/// (Zhang et al., ISCA '03).
///
/// Replacement defaults to true LRU, tracked per set with a recency
/// stamp; see [`ReplacementPolicy`] for the alternatives.
///
/// # Example
///
/// ```
/// use cache_sim::{Access, Cache, CacheConfig};
///
/// # fn main() -> Result<(), cache_sim::ConfigError> {
/// let mut cache = Cache::new(CacheConfig::parse("2KB_1W_16B")?);
/// assert!(!cache.access(Access::read(0x100)));  // cold miss
/// assert!(cache.access(Access::read(0x104)));   // same 16 B line: hit
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    geometry: Geometry,
    /// The Table 1 configuration, when the cache was built from one.
    config: Option<CacheConfig>,
    /// `sets * ways` line slots; `None` = invalid.
    tags: Vec<Option<u64>>,
    /// Recency stamp per slot; larger = more recently used.
    recency: Vec<u64>,
    clock: u64,
    stats: CacheStats,
    num_sets: u64,
    ways: usize,
    line_shift: u32,
    policy: ReplacementPolicy,
    rng_state: u64,
}

impl Cache {
    /// Create an empty (all-invalid) cache in the given Table 1
    /// configuration, with LRU replacement.
    #[inline]
    pub fn new(config: CacheConfig) -> Self {
        let mut cache = Cache::from_geometry(Geometry::from(config));
        cache.config = Some(config);
        cache
    }

    /// Like [`new`](Cache::new) with an explicit replacement policy.
    pub fn with_policy(config: CacheConfig, policy: ReplacementPolicy) -> Self {
        let mut cache = Cache::new(config);
        cache.policy = policy;
        if let ReplacementPolicy::Random { seed } = policy {
            cache.rng_state = seed;
        }
        cache
    }

    /// Create an empty cache with an arbitrary [`Geometry`] — e.g. the
    /// non-configurable L2 of the Figure 1 architecture.
    pub fn from_geometry(geometry: Geometry) -> Self {
        let num_sets = u64::from(geometry.sets());
        let ways = geometry.ways() as usize;
        let slots = num_sets as usize * ways;
        Cache {
            geometry,
            config: None,
            tags: vec![None; slots],
            recency: vec![0; slots],
            clock: 0,
            stats: CacheStats::new(),
            num_sets,
            ways,
            line_shift: geometry.line_bytes().trailing_zeros(),
            policy: ReplacementPolicy::Lru,
            rng_state: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// The Table 1 configuration this cache was built from, if any.
    pub fn config(&self) -> Option<CacheConfig> {
        self.config
    }

    /// The physical geometry.
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Invalidate every line and zero the statistics, as a cache flush on
    /// reconfiguration would.
    pub fn reset(&mut self) {
        self.tags.fill(None);
        self.recency.fill(0);
        self.clock = 0;
        self.stats = CacheStats::new();
    }

    /// Perform one access; returns `true` on a hit.
    ///
    /// Misses allocate the line (write-allocate) and evict the LRU way when
    /// the set is full.
    pub fn access(&mut self, access: Access) -> bool {
        let block = access.addr >> self.line_shift;
        let set = (block % self.num_sets) as usize;
        let tag = block / self.num_sets;
        let base = set * self.ways;
        let slots = base..base + self.ways;
        self.clock += 1;
        let is_write = access.kind == AccessKind::Write;

        // Hit path: LRU refreshes recency; FIFO/random leave fill order.
        for slot in slots.clone() {
            if self.tags[slot] == Some(tag) {
                if self.policy == ReplacementPolicy::Lru {
                    self.recency[slot] = self.clock;
                }
                self.stats.record_hit(is_write);
                return true;
            }
        }

        // Miss path: fill into an invalid way or evict per policy.
        self.stats.record_miss(is_write);
        let victim = match self.tags[slots.clone()].iter().position(Option::is_none) {
            Some(free) => base + free,
            None => {
                self.stats.record_eviction();
                match self.policy {
                    // LRU: oldest recency; FIFO: oldest fill stamp — both
                    // minimise the same counter under their update rules.
                    ReplacementPolicy::Lru | ReplacementPolicy::Fifo => slots
                        .min_by_key(|&slot| self.recency[slot])
                        .expect("ways >= 1"),
                    ReplacementPolicy::Random { .. } => {
                        // SplitMix64 step.
                        self.rng_state = self.rng_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                        let mut z = self.rng_state;
                        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                        z ^= z >> 31;
                        base + (z % self.ways as u64) as usize
                    }
                }
            }
        };
        self.tags[victim] = Some(tag);
        self.recency[victim] = self.clock;
        false
    }

    /// Replay a whole trace, returning the statistics for *this run only*
    /// (the cache's cumulative [`stats`](Cache::stats) also advance).
    #[inline]
    pub fn run(&mut self, trace: &Trace) -> CacheStats {
        let before = self.stats;
        for &access in trace.iter() {
            self.access(access);
        }
        self.stats.since(&before)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{design_space, CacheConfig};
    use crate::trace::{Access, Trace};

    fn config(text: &str) -> CacheConfig {
        CacheConfig::parse(text).unwrap()
    }

    #[test]
    fn cold_cache_misses_then_hits() {
        let mut cache = Cache::new(config("8KB_4W_64B"));
        assert!(!cache.access(Access::read(0x1000)));
        assert!(cache.access(Access::read(0x1000)));
        assert!(cache.access(Access::read(0x103F))); // same 64 B line
        assert!(!cache.access(Access::read(0x1040))); // next line
    }

    #[test]
    fn write_allocate_fills_on_write_miss() {
        let mut cache = Cache::new(config("2KB_1W_16B"));
        assert!(!cache.access(Access::write(0x200)));
        assert!(cache.access(Access::read(0x200)));
        assert_eq!(cache.stats().write_misses(), 1);
        assert_eq!(cache.stats().read_hits(), 1);
    }

    #[test]
    fn direct_mapped_conflict_thrashes() {
        // Two addresses that map to the same set in a direct-mapped cache
        // alternate and never hit.
        let cfg = config("2KB_1W_16B");
        let stride = u64::from(cfg.num_sets()) * u64::from(cfg.line().bytes());
        let mut cache = Cache::new(cfg);
        for _ in 0..10 {
            assert!(!cache.access(Access::read(0)));
            assert!(!cache.access(Access::read(stride)));
        }
        assert_eq!(cache.stats().misses(), 20);
    }

    #[test]
    fn two_way_absorbs_the_same_conflict() {
        // The identical alternating pattern fits in a 2-way set.
        let cfg = config("4KB_2W_16B");
        let stride = u64::from(cfg.num_sets()) * u64::from(cfg.line().bytes());
        let mut cache = Cache::new(cfg);
        cache.access(Access::read(0));
        cache.access(Access::read(stride));
        for _ in 0..10 {
            assert!(cache.access(Access::read(0)));
            assert!(cache.access(Access::read(stride)));
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // 2-way set: touch A, B, re-touch A, then C. B must be evicted.
        let cfg = config("4KB_2W_16B");
        let stride = u64::from(cfg.num_sets()) * u64::from(cfg.line().bytes());
        let (a, b, c) = (0, stride, 2 * stride);
        let mut cache = Cache::new(cfg);
        cache.access(Access::read(a));
        cache.access(Access::read(b));
        cache.access(Access::read(a));
        cache.access(Access::read(c)); // evicts b (LRU)
        assert!(cache.access(Access::read(a)), "a must survive");
        assert!(!cache.access(Access::read(b)), "b must have been evicted");
    }

    #[test]
    fn reset_clears_contents_and_stats() {
        let mut cache = Cache::new(config("8KB_2W_32B"));
        cache.access(Access::read(0x40));
        cache.reset();
        assert_eq!(cache.stats().accesses(), 0);
        assert!(
            !cache.access(Access::read(0x40)),
            "reset must invalidate lines"
        );
    }

    #[test]
    fn run_isolates_per_run_statistics() {
        let mut cache = Cache::new(config("8KB_4W_64B"));
        let trace: Trace = (0..64u64).map(|i| Access::read(i * 64)).collect();
        let first = cache.run(&trace);
        let second = cache.run(&trace);
        assert_eq!(first.misses(), 64, "all cold misses");
        assert_eq!(second.hits(), 64, "fully warm on the second pass");
        assert_eq!(cache.stats().accesses(), 128);
    }

    #[test]
    fn working_set_fitting_in_cache_has_only_cold_misses() {
        for cfg in design_space() {
            let lines = u64::from(cfg.num_lines());
            let line_bytes = u64::from(cfg.line().bytes());
            let trace: Trace = (0..lines)
                .cycle()
                .take(lines as usize * 4)
                .map(|i| Access::read(i * line_bytes))
                .collect();
            let stats = Cache::new(cfg).run(&trace);
            assert_eq!(stats.misses(), lines, "only cold misses for {cfg}");
        }
    }

    #[test]
    fn hits_plus_misses_equals_accesses() {
        let mut cache = Cache::new(config("4KB_1W_32B"));
        let trace: Trace = (0..1000u64)
            .map(|i| Access::read((i * 97) % 16384))
            .collect();
        let stats = cache.run(&trace);
        assert_eq!(stats.hits() + stats.misses(), 1000);
    }

    #[test]
    fn fifo_does_not_refresh_on_hit() {
        // 2-way set: fill A, B; touch A (hit); fill C.
        // LRU evicts B (least recently used); FIFO evicts A (oldest fill).
        let cfg = config("4KB_2W_16B");
        let stride = u64::from(cfg.num_sets()) * u64::from(cfg.line().bytes());
        let (a, b, c) = (0, stride, 2 * stride);

        let mut lru = Cache::with_policy(cfg, ReplacementPolicy::Lru);
        lru.access(Access::read(a));
        lru.access(Access::read(b));
        lru.access(Access::read(a));
        lru.access(Access::read(c));
        assert!(lru.access(Access::read(a)), "LRU keeps the re-touched line");

        let mut fifo = Cache::with_policy(cfg, ReplacementPolicy::Fifo);
        fifo.access(Access::read(a));
        fifo.access(Access::read(b));
        fifo.access(Access::read(a));
        fifo.access(Access::read(c));
        assert!(!fifo.access(Access::read(a)), "FIFO evicts the oldest fill");
        // A's refill evicted B (now the oldest); C must still be resident.
        assert!(fifo.access(Access::read(c)), "FIFO keeps the newest fill");
    }

    #[test]
    fn random_replacement_is_deterministic_per_seed() {
        let cfg = config("8KB_4W_16B");
        let trace: Trace = (0..5000u64)
            .map(|i| Access::read((i * 131) % 65_536))
            .collect();
        let run = |seed| Cache::with_policy(cfg, ReplacementPolicy::Random { seed }).run(&trace);
        assert_eq!(run(1), run(1));
        // Different seeds almost surely diverge on a conflict-heavy trace.
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn all_policies_agree_on_cold_misses_and_accounting() {
        let cfg = config("2KB_1W_32B");
        let trace: Trace = (0..2000u64)
            .map(|i| Access::read((i * 77) % 16_384))
            .collect();
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Random { seed: 3 },
        ] {
            let stats = Cache::with_policy(cfg, policy).run(&trace);
            assert_eq!(stats.accesses(), 2000, "{policy:?}");
            assert!(
                stats.misses() >= trace.working_set_lines(32) as u64,
                "{policy:?} cannot beat cold misses"
            );
        }
        // Direct-mapped caches have exactly one candidate way, so every
        // policy must produce identical statistics.
        let lru = Cache::with_policy(cfg, ReplacementPolicy::Lru).run(&trace);
        let random = Cache::with_policy(cfg, ReplacementPolicy::Random { seed: 9 }).run(&trace);
        assert_eq!(lru, random, "direct-mapped: policy is irrelevant");
    }

    #[test]
    fn lru_beats_fifo_on_a_reuse_heavy_pattern() {
        // Cyclic sweep slightly exceeding capacity plus a hot line that is
        // re-touched constantly: LRU protects the hot line, FIFO cycles it
        // out.
        let cfg = config("4KB_2W_16B");
        let lines = u64::from(cfg.num_lines());
        let mut trace = Trace::new();
        for round in 0..40u64 {
            for i in 0..=lines {
                trace.push(Access::read((i + round) % (lines + 8) * 16));
                trace.push(Access::read(1 << 20)); // hot line, far region
            }
        }
        let lru = Cache::with_policy(cfg, ReplacementPolicy::Lru).run(&trace);
        let fifo = Cache::with_policy(cfg, ReplacementPolicy::Fifo).run(&trace);
        assert!(
            lru.misses() <= fifo.misses(),
            "LRU ({}) should not miss more than FIFO ({}) here",
            lru.misses(),
            fifo.misses()
        );
    }

    #[test]
    fn evictions_only_occur_when_capacity_exceeded() {
        let cfg = config("2KB_1W_16B");
        let lines = u64::from(cfg.num_lines());
        // Touch exactly the capacity: no eviction.
        let fit: Trace = (0..lines).map(|i| Access::read(i * 16)).collect();
        assert_eq!(Cache::new(cfg).run(&fit).evictions(), 0);
        // Touch capacity + 1 distinct lines: at least one eviction.
        let spill: Trace = (0..=lines).map(|i| Access::read(i * 16)).collect();
        assert!(Cache::new(cfg).run(&spill).evictions() >= 1);
    }
}
