//! Single-pass ("fused") multi-configuration sweeps: [`sweep`],
//! [`sweep_with_policy`] and [`sweep_hierarchy`].
//!
//! A sweep semantically replays the trace once per Table 1
//! configuration — 18 passes. The paper's offline characterisation does
//! this for every benchmark, so it dominates `SuiteOracle::build` time.
//! This module walks the trace **once**, feeding each block of accesses to
//! 18 independent cache *lanes*, and produces statistics that are
//! bit-identical to the per-configuration replays (property-tested in
//! `tests/properties.rs`).
//!
//! The walk is *tiled*: the trace is consumed in L1-cache-sized blocks,
//! and each lane replays the whole block before the next lane runs. Each
//! lane therefore sees the same access sequence in the same order as a
//! dedicated replay — identical state, identical counters — while a block
//! read 18 times stays resident in the host's cache, which is what makes
//! fusion faster than 18 full passes.
//!
//! Within a lane, the per-access loop beats the general
//! [`Cache`](crate::Cache) model on constant factors:
//!
//! * set index and tag come from mask/shift instead of the two `u64`
//!   divisions `Cache::access` pays per access (every Table 1 geometry
//!   has a power-of-two set count; a modulo fallback covers arbitrary
//!   L2 geometries);
//! * invalid lines are a `u64::MAX` sentinel tag rather than
//!   `Option<u64>`, halving the tag-scan footprint;
//! * the way loops are specialised for the 1/2/4-way shapes of Table 1,
//!   so they fully unroll;
//! * each set's tags and recency stamps are interleaved into one
//!   contiguous slot, so an access touches one host cache line instead
//!   of two (and direct-mapped lanes carry no recency at all — with one
//!   way there is nothing to rank);
//! * the clock, RNG state, and statistics counters live in locals for
//!   the duration of a block instead of being written back per access.

use crate::cache::ReplacementPolicy;
use crate::config::{design_space, CacheConfig};
use crate::geometry::Geometry;
use crate::hierarchy::HierarchyStats;
use crate::stats::CacheStats;
use crate::trace::{Access, AccessKind, Trace};

/// Sentinel tag marking an invalid line. Unreachable by real accesses:
/// a tag is `addr >> (line_shift + set_shift)` with a total shift of at
/// least one bit (enforced in [`Lane::new`]), so it is at most
/// `u64::MAX >> 1`.
const INVALID: u64 = u64::MAX;

/// Accesses per tile: 512 × 16 B = 8 KB of trace, small enough to stay
/// cache-resident while all 18 lanes (plus their slot arrays) replay it,
/// large enough to amortise the per-lane dispatch and state write-back.
const BLOCK_ACCESSES: usize = 512;

/// How a lane maps a block number to `(set, tag)`.
#[derive(Debug, Clone, Copy)]
enum SetIndexing {
    /// Power-of-two set count: mask/shift (all Table 1 geometries).
    Pow2 {
        /// `sets - 1`.
        mask: u64,
        /// `log2(sets)`.
        shift: u32,
    },
    /// Arbitrary set count: divide/modulo (odd L2 geometries).
    Mod {
        /// Set count.
        sets: u64,
    },
}

/// One configuration's cache state inside a fused sweep. Mirrors
/// [`Cache`](crate::Cache) exactly, with the representation tightened
/// for the inner loop.
#[derive(Debug, Clone)]
struct Lane {
    /// Per-set interleaved state, one slot of [`slot_stride`]`(ways)`
    /// words per set: `ways` tags ([`INVALID`] = empty) followed — for
    /// associative lanes — by `ways` recency stamps (larger = more
    /// recently used). Direct-mapped lanes store tags only.
    state: Vec<u64>,
    clock: u64,
    stats: CacheStats,
    indexing: SetIndexing,
    line_shift: u32,
    ways: usize,
    policy: ReplacementPolicy,
    rng_state: u64,
}

/// Words per set in [`Lane::state`]: tags plus, when associativity gives
/// the replacement policy an actual choice, recency stamps.
const fn slot_stride(ways: usize) -> usize {
    if ways == 1 {
        1
    } else {
        2 * ways
    }
}

impl Lane {
    /// An empty lane matching `Cache::with_policy` over this geometry.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate one-set, one-byte-line geometry, where the
    /// whole address would become the tag and collide with the
    /// [`INVALID`] sentinel.
    fn new(geometry: Geometry, policy: ReplacementPolicy) -> Self {
        let sets = u64::from(geometry.sets());
        let ways = geometry.ways() as usize;
        let line_shift = geometry.line_bytes().trailing_zeros();
        assert!(
            line_shift > 0 || sets > 1,
            "fused sweep cannot model a 1-set cache with 1-byte lines"
        );
        let indexing = if sets.is_power_of_two() {
            SetIndexing::Pow2 {
                mask: sets - 1,
                shift: sets.trailing_zeros(),
            }
        } else {
            SetIndexing::Mod { sets }
        };
        let stride = slot_stride(ways);
        let mut state = vec![0u64; sets as usize * stride];
        for slot in state.chunks_exact_mut(stride) {
            slot[..ways].fill(INVALID);
        }
        Lane {
            state,
            clock: 0,
            stats: CacheStats::new(),
            indexing,
            line_shift,
            ways,
            policy,
            rng_state: match policy {
                ReplacementPolicy::Random { seed } => seed,
                _ => 0x9E37_79B9_7F4A_7C15,
            },
        }
    }

    /// Replay a block of accesses, bit-identical to `Cache::access` in
    /// every counter and every replacement decision. When `COLLECT` is
    /// true, each missing access is appended to `misses` in order — the
    /// traffic the next cache level would see.
    fn replay<const COLLECT: bool>(&mut self, accesses: &[Access], misses: &mut Vec<Access>) {
        let src = accesses
            .iter()
            .map(|access| (access.addr, access.kind == AccessKind::Write));
        self.replay_src::<COLLECT>(src, misses);
    }

    /// Dispatch once per block so the Table 1 shapes get fully unrolled,
    /// bounds-check-free scan loops (`replay_spec` is `inline(always)`;
    /// the constants propagate into each call site). Non-power-of-two
    /// set counts and unusual associativities fall back to a generic
    /// loop.
    fn replay_src<const COLLECT: bool>(
        &mut self,
        src: impl Iterator<Item = (u64, bool)>,
        misses: &mut Vec<Access>,
    ) {
        if matches!(self.indexing, SetIndexing::Pow2 { .. }) {
            match self.ways {
                1 => self.replay_spec::<COLLECT, 1, true>(src, misses),
                2 => self.replay_spec::<COLLECT, 2, true>(src, misses),
                4 => self.replay_spec::<COLLECT, 4, true>(src, misses),
                n => self.replay_dyn::<COLLECT, true>(src, misses, n),
            }
        } else {
            let ways = self.ways;
            self.replay_dyn::<COLLECT, false>(src, misses, ways);
        }
    }

    /// The hot loop, specialised per way count. `W == 1` elides all
    /// recency bookkeeping (and the random draw): a direct-mapped set
    /// has exactly one victim, so recency is never read and the RNG
    /// stream — private to this lane — steers nothing.
    // The scans index `slot` on purpose: one buffer holds tags in
    // `slot[..W]` and recency stamps in `slot[W + way]`, and the victim
    // scans must preserve first-match order.
    #[allow(clippy::needless_range_loop)]
    #[inline(always)]
    fn replay_spec<const COLLECT: bool, const W: usize, const POW2: bool>(
        &mut self,
        src: impl Iterator<Item = (u64, bool)>,
        misses: &mut Vec<Access>,
    ) {
        let line_shift = self.line_shift;
        let (mask, shift, sets) = match self.indexing {
            SetIndexing::Pow2 { mask, shift } => (mask, shift, 1),
            SetIndexing::Mod { sets } => (0, 0, sets),
        };
        let stride = slot_stride(W);
        let policy = self.policy;
        let lru = policy == ReplacementPolicy::Lru;
        let state = self.state.as_mut_slice();
        // Block-local state: written back once at the end.
        let mut clock = self.clock;
        let mut rng_state = self.rng_state;
        // Counters split by access kind and indexed with `is_write`, so
        // bookkeeping costs no data-dependent branch.
        let mut hits = [0u64; 2];
        let mut miss_counts = [0u64; 2];
        let mut evictions = 0u64;

        for (addr, is_write) in src {
            let block = addr >> line_shift;
            let (set, tag) = if POW2 {
                ((block & mask) as usize, block >> shift)
            } else {
                ((block % sets) as usize, block / sets)
            };
            let base = set * stride;
            // One range check here buys check-free indexing below: the
            // slot's length is the constant `stride` and every index is a
            // constant below it.
            let slot = &mut state[base..base + stride];
            clock += 1;

            // Hit path: LRU refreshes recency; FIFO/random leave fill
            // order.
            let mut way = usize::MAX;
            for i in 0..W {
                if slot[i] == tag {
                    way = i;
                    break;
                }
            }
            if way != usize::MAX {
                if W > 1 && lru {
                    slot[W + way] = clock;
                }
                hits[is_write as usize] += 1;
                continue;
            }

            // Miss path: fill into an invalid way or evict per policy.
            miss_counts[is_write as usize] += 1;
            if COLLECT {
                misses.push(if is_write {
                    Access::write(addr)
                } else {
                    Access::read(addr)
                });
            }
            let mut victim = usize::MAX;
            for i in 0..W {
                if slot[i] == INVALID {
                    victim = i;
                    break;
                }
            }
            if victim == usize::MAX {
                evictions += 1;
                victim = if W == 1 {
                    0
                } else {
                    match policy {
                        // First strict minimum = `Iterator::min_by_key`
                        // tie-break.
                        ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                            let mut best = 0;
                            for i in 1..W {
                                if slot[W + i] < slot[W + best] {
                                    best = i;
                                }
                            }
                            best
                        }
                        ReplacementPolicy::Random { .. } => {
                            rng_state = rng_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                            (splitmix_mix(rng_state) % W as u64) as usize
                        }
                    }
                };
            }
            slot[victim] = tag;
            if W > 1 {
                slot[W + victim] = clock;
            }
        }

        self.clock = clock;
        self.rng_state = rng_state;
        self.stats +=
            CacheStats::from_counts(hits[0], miss_counts[0], hits[1], miss_counts[1], evictions);
    }

    /// Generic-associativity fallback: same semantics as
    /// [`replay_spec`](Self::replay_spec) with a runtime way count.
    #[allow(clippy::needless_range_loop)]
    fn replay_dyn<const COLLECT: bool, const POW2: bool>(
        &mut self,
        src: impl Iterator<Item = (u64, bool)>,
        misses: &mut Vec<Access>,
        ways: usize,
    ) {
        let line_shift = self.line_shift;
        let (mask, shift, sets) = match self.indexing {
            SetIndexing::Pow2 { mask, shift } => (mask, shift, 1),
            SetIndexing::Mod { sets } => (0, 0, sets),
        };
        let stride = slot_stride(ways);
        let policy = self.policy;
        let lru = policy == ReplacementPolicy::Lru;
        let state = self.state.as_mut_slice();
        let mut clock = self.clock;
        let mut rng_state = self.rng_state;
        let mut stats = CacheStats::new();

        for (addr, is_write) in src {
            let block = addr >> line_shift;
            let (set, tag) = if POW2 {
                ((block & mask) as usize, block >> shift)
            } else {
                ((block % sets) as usize, block / sets)
            };
            let base = set * stride;
            let slot = &mut state[base..base + stride];
            clock += 1;

            let mut way = usize::MAX;
            for i in 0..ways {
                if slot[i] == tag {
                    way = i;
                    break;
                }
            }
            if way != usize::MAX {
                if ways > 1 && lru {
                    slot[ways + way] = clock;
                }
                stats.record_hit(is_write);
                continue;
            }

            stats.record_miss(is_write);
            if COLLECT {
                misses.push(if is_write {
                    Access::write(addr)
                } else {
                    Access::read(addr)
                });
            }
            let mut victim = usize::MAX;
            for i in 0..ways {
                if slot[i] == INVALID {
                    victim = i;
                    break;
                }
            }
            if victim == usize::MAX {
                stats.record_eviction();
                victim = if ways == 1 {
                    0
                } else {
                    match policy {
                        ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                            let mut best = 0;
                            for i in 1..ways {
                                if slot[ways + i] < slot[ways + best] {
                                    best = i;
                                }
                            }
                            best
                        }
                        ReplacementPolicy::Random { .. } => {
                            rng_state = rng_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                            (splitmix_mix(rng_state) % ways as u64) as usize
                        }
                    }
                };
            }
            slot[victim] = tag;
            if ways > 1 {
                slot[ways + victim] = clock;
            }
        }

        self.clock = clock;
        self.rng_state = rng_state;
        self.stats += stats;
    }
}

/// SplitMix64 output mix, same stream as `Cache::access`.
#[inline(always)]
fn splitmix_mix(state: u64) -> u64 {
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Simulate `trace` under **all 18** Table 1 configurations.
///
/// This is what the paper did offline with SimpleScalar ("we used
/// SimpleScalar to record the benchmarks' cache accesses and miss rates for
/// every cache configuration"). Results are in [`design_space`] order.
///
/// Single pass over the trace; `hetero_oracles::cache::sweep_serial` is
/// the obviously-correct 18-replay reference it is property-tested
/// against, and the results are bit-identical.
///
/// ```
/// use cache_sim::{sweep, Access, Trace};
/// use hetero_oracles::cache::sweep_serial;
/// let trace: Trace = (0..512u64).map(|i| Access::read(i * 24)).collect();
/// assert_eq!(sweep(&trace), sweep_serial(&trace));
/// ```
pub fn sweep(trace: &Trace) -> Vec<(CacheConfig, CacheStats)> {
    sweep_with_policy(trace, ReplacementPolicy::Lru)
}

/// Like [`sweep`], but with an explicit replacement policy (the
/// replacement-policy ablation; [`sweep`] is the paper's LRU). Its
/// per-config reference is `hetero_oracles::cache::sweep_with_policy_serial`.
pub fn sweep_with_policy(
    trace: &Trace,
    policy: ReplacementPolicy,
) -> Vec<(CacheConfig, CacheStats)> {
    let mut lanes: Vec<(CacheConfig, Lane)> = design_space()
        .map(|config| (config, Lane::new(Geometry::from(config), policy)))
        .collect();
    let mut no_misses = Vec::new();
    for chunk in trace.as_slice().chunks(BLOCK_ACCESSES) {
        for (_, lane) in &mut lanes {
            lane.replay::<false>(chunk, &mut no_misses);
        }
    }
    lanes
        .into_iter()
        .map(|(config, lane)| (config, lane.stats))
        .collect()
}

/// Simulate `trace` under all 18 L1 configurations, each in front of
/// its own private copy of the same L2 geometry, in
/// [`design_space`] order and one trace walk;
/// `hetero_oracles::cache::sweep_hierarchy_serial` is the per-config
/// reference it is tested against. Per block, each L1 lane's misses are
/// collected in order and replayed through its L2 lane — the L2 sees
/// exactly the reference stream it would in an interleaved
/// [`CacheHierarchy`](crate::CacheHierarchy) replay.
pub fn sweep_hierarchy(l2_geometry: Geometry, trace: &Trace) -> Vec<(CacheConfig, HierarchyStats)> {
    let mut lanes: Vec<(CacheConfig, Lane, Lane)> = design_space()
        .map(|config| {
            (
                config,
                Lane::new(Geometry::from(config), ReplacementPolicy::Lru),
                Lane::new(l2_geometry, ReplacementPolicy::Lru),
            )
        })
        .collect();
    let mut misses = Vec::with_capacity(BLOCK_ACCESSES);
    let mut no_misses = Vec::new();
    for chunk in trace.as_slice().chunks(BLOCK_ACCESSES) {
        for (_, l1, l2) in &mut lanes {
            misses.clear();
            l1.replay::<true>(chunk, &mut misses);
            l2.replay::<false>(&misses, &mut no_misses);
        }
    }
    lanes
        .into_iter()
        .map(|(config, l1, l2)| {
            (
                config,
                HierarchyStats {
                    l1: l1.stats,
                    l2: l2.stats,
                },
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_trace_yields_zeroed_lanes() {
        for (config, stats) in sweep(&Trace::new()) {
            assert_eq!(stats.accesses(), 0, "{config}");
        }
    }
}
