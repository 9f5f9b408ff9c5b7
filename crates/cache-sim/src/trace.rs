//! Memory-reference traces and simulation drivers.

use crate::cache::Cache;
use crate::config::CacheConfig;
use crate::stats::CacheStats;

/// Whether an access reads or writes memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Load.
    Read,
    /// Store.
    Write,
}

/// One memory reference: a byte address plus read/write direction.
///
/// ```
/// use cache_sim::{Access, AccessKind};
/// let a = Access::read(0x1000);
/// assert_eq!(a.kind, AccessKind::Read);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Access {
    /// Byte address.
    pub addr: u64,
    /// Read or write.
    pub kind: AccessKind,
}

impl Access {
    /// A load from `addr`.
    pub fn read(addr: u64) -> Self {
        Access {
            addr,
            kind: AccessKind::Read,
        }
    }

    /// A store to `addr`.
    pub fn write(addr: u64) -> Self {
        Access {
            addr,
            kind: AccessKind::Write,
        }
    }
}

/// An ordered sequence of memory references.
///
/// `Trace` is a thin collection wrapper (it implements [`FromIterator`] and
/// [`Extend`]) so that kernels can be written as iterator pipelines:
///
/// ```
/// use cache_sim::{Access, Trace};
/// let trace: Trace = (0..16u64).map(|i| Access::read(i * 4)).collect();
/// assert_eq!(trace.len(), 16);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    accesses: Vec<Access>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Pre-allocate space for `capacity` accesses.
    pub fn with_capacity(capacity: usize) -> Self {
        Trace {
            accesses: Vec::with_capacity(capacity),
        }
    }

    /// Append one access.
    pub fn push(&mut self, access: Access) {
        self.accesses.push(access);
    }

    /// Number of accesses.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// `true` when the trace holds no accesses.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// Iterate over the accesses in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, Access> {
        self.accesses.iter()
    }

    /// Borrow the accesses as a slice.
    pub fn as_slice(&self) -> &[Access] {
        &self.accesses
    }

    /// Count of store accesses.
    pub fn writes(&self) -> usize {
        self.accesses
            .iter()
            .filter(|a| a.kind == AccessKind::Write)
            .count()
    }

    /// Count of load accesses.
    pub fn reads(&self) -> usize {
        self.len() - self.writes()
    }

    /// Number of *distinct cache lines* the trace touches at the given line
    /// size — a direct measure of the working set in lines.
    pub fn working_set_lines(&self, line_bytes: u32) -> usize {
        let shift = line_bytes.trailing_zeros();
        let mut lines: Vec<u64> = self.accesses.iter().map(|a| a.addr >> shift).collect();
        lines.sort_unstable();
        lines.dedup();
        lines.len()
    }
}

impl FromIterator<Access> for Trace {
    fn from_iter<I: IntoIterator<Item = Access>>(iter: I) -> Self {
        Trace {
            accesses: iter.into_iter().collect(),
        }
    }
}

impl Extend<Access> for Trace {
    fn extend<I: IntoIterator<Item = Access>>(&mut self, iter: I) {
        self.accesses.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Access;
    type IntoIter = std::slice::Iter<'a, Access>;

    fn into_iter(self) -> Self::IntoIter {
        self.accesses.iter()
    }
}

impl IntoIterator for Trace {
    type Item = Access;
    type IntoIter = std::vec::IntoIter<Access>;

    fn into_iter(self) -> Self::IntoIter {
        self.accesses.into_iter()
    }
}

impl AsRef<[Access]> for Trace {
    fn as_ref(&self) -> &[Access] {
        &self.accesses
    }
}

/// Replay `trace` through a cold cache in `config`, returning its statistics.
///
/// ```
/// use cache_sim::{simulate, Access, Trace, BASE_CONFIG};
/// let trace: Trace = (0..256u64).map(|i| Access::read(i * 64)).collect();
/// let stats = simulate(BASE_CONFIG, &trace);
/// assert_eq!(stats.accesses(), 256);
/// ```
#[inline]
pub fn simulate(config: CacheConfig, trace: &Trace) -> CacheStats {
    Cache::new(config).run(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BASE_CONFIG, DESIGN_SPACE_LEN};
    use crate::sweep;

    fn strided(n: u64, stride: u64) -> Trace {
        (0..n).map(|i| Access::read(i * stride)).collect()
    }

    #[test]
    fn trace_collects_and_counts() {
        let mut trace: Trace = (0..10u64).map(Access::read).collect();
        trace.extend((0..5u64).map(Access::write));
        assert_eq!(trace.len(), 15);
        assert_eq!(trace.reads(), 10);
        assert_eq!(trace.writes(), 5);
        assert!(!trace.is_empty());
    }

    #[test]
    fn working_set_lines_dedups_by_line() {
        let trace: Trace = [0u64, 4, 8, 12, 16, 20]
            .iter()
            .map(|&a| Access::read(a))
            .collect();
        assert_eq!(trace.working_set_lines(16), 2); // lines 0 and 1
        assert_eq!(trace.working_set_lines(32), 1);
    }

    #[test]
    fn simulate_is_deterministic() {
        let trace = strided(5000, 24);
        assert_eq!(simulate(BASE_CONFIG, &trace), simulate(BASE_CONFIG, &trace));
    }

    #[test]
    fn sweep_covers_the_whole_design_space() {
        let trace = strided(256, 64);
        let results = sweep(&trace);
        assert_eq!(results.len(), DESIGN_SPACE_LEN);
        for (config, stats) in &results {
            assert_eq!(stats.accesses(), 256, "config {config}");
        }
    }

    #[test]
    fn larger_lines_capture_more_spatial_locality() {
        // A dense sequential byte sweep: doubling the line size halves the
        // cold misses.
        let trace: Trace = (0..4096u64).map(Access::read).collect();
        let m16 = simulate(CacheConfig::parse("8KB_1W_16B").unwrap(), &trace).misses();
        let m32 = simulate(CacheConfig::parse("8KB_1W_32B").unwrap(), &trace).misses();
        let m64 = simulate(CacheConfig::parse("8KB_1W_64B").unwrap(), &trace).misses();
        assert_eq!(m16, 256);
        assert_eq!(m32, 128);
        assert_eq!(m64, 64);
    }

    #[test]
    fn larger_cache_never_misses_more_on_a_looped_sweep() {
        // Cyclic sweep over 4 KB: fits in 4 and 8 KB caches, thrashes 2 KB.
        let trace: Trace = (0..(4096 / 16) as u64)
            .cycle()
            .take(4096)
            .map(|i| Access::read(i * 16))
            .collect();
        let m2 = simulate(CacheConfig::parse("2KB_1W_16B").unwrap(), &trace).misses();
        let m4 = simulate(CacheConfig::parse("4KB_1W_16B").unwrap(), &trace).misses();
        let m8 = simulate(CacheConfig::parse("8KB_1W_16B").unwrap(), &trace).misses();
        assert!(m2 > m4, "2KB ({m2}) should thrash vs 4KB ({m4})");
        assert!(m4 >= m8, "4KB ({m4}) >= 8KB ({m8})");
    }

    #[test]
    fn empty_trace_yields_empty_stats() {
        let stats = simulate(BASE_CONFIG, &Trace::new());
        assert_eq!(stats.accesses(), 0);
    }
}
