//! Indexed core occupancy: bitset idle masks over the per-core views.
//!
//! Every simulator event used to pay O(num_cores): idle-energy accrual
//! scanned all cores, saturation checks used `iter().all(..)`, and every
//! placement did a linear `iter().find(|c| c.is_idle())`. [`CoreIndex`]
//! replaces those scans with u64 idle-mask words (bit set ⇔ the core is
//! vacant *and* online) maintained incrementally on place/vacate/outage
//! transitions, plus integer idle/busy population counters so saturation
//! and liveness checks are O(1).
//!
//! The same per-core [`CoreView`] snapshots remain available through
//! [`CoreIndex::view`] and [`CoreIndex::views`], so policies that need
//! occupancy details (remaining cycles of a busy core, say) read exactly
//! what they read before; only the *searches* changed representation.
//!
//! [`CoreSet`] is a plain membership mask over core ids. Architectures
//! precompute one per cache-size class, and
//! [`CoreIndex::first_idle_in`] intersects it with the idle mask in O(W)
//! words (W = ⌈n/64⌉) instead of walking a `Vec<CoreId>`.

use crate::scheduler::{BusyInfo, CoreId, CoreView};

pub(crate) const WORD_BITS: usize = u64::BITS as usize;

fn word_count(bits: usize) -> usize {
    bits.div_ceil(WORD_BITS)
}

/// A fixed-capacity set of core ids backed by u64 mask words.
///
/// Used for class membership ("all cores whose cache is 8 KB"), and
/// intersected against the live idle mask by
/// [`CoreIndex::first_idle_in`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreSet {
    words: Vec<u64>,
    num_cores: usize,
}

impl CoreSet {
    /// An empty set over a machine of `num_cores` cores.
    pub fn new(num_cores: usize) -> Self {
        CoreSet {
            words: vec![0; word_count(num_cores)],
            num_cores,
        }
    }

    /// Build a set from an iterator of member core ids.
    pub fn from_cores(num_cores: usize, cores: impl IntoIterator<Item = CoreId>) -> Self {
        let mut set = CoreSet::new(num_cores);
        for core in cores {
            set.insert(core);
        }
        set
    }

    /// Add `core` to the set.
    pub fn insert(&mut self, core: CoreId) {
        assert!(core.0 < self.num_cores, "core out of range");
        self.words[core.0 / WORD_BITS] |= 1u64 << (core.0 % WORD_BITS);
    }

    /// Drop `core` from the set.
    pub(crate) fn remove(&mut self, core: CoreId) {
        self.words[core.0 / WORD_BITS] &= !(1u64 << (core.0 % WORD_BITS));
    }

    /// Remove every member that is idle in `cores`, handing each to `f`
    /// in ascending order: one AND per word plus one call per member.
    pub(crate) fn drain_idle(&mut self, cores: &CoreIndex, mut f: impl FnMut(CoreId)) {
        for (w, (word, &idle)) in self.words.iter_mut().zip(&cores.idle_words).enumerate() {
            let mut both = *word & idle;
            *word &= !both;
            while both != 0 {
                f(CoreId(w * WORD_BITS + both.trailing_zeros() as usize));
                both &= both - 1;
            }
        }
    }

    /// `true` when `core` is a member.
    pub fn contains(&self, core: CoreId) -> bool {
        core.0 < self.num_cores
            && self.words[core.0 / WORD_BITS] & (1u64 << (core.0 % WORD_BITS)) != 0
    }

    /// Number of members (popcount over the mask words).
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` when the set has no members.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Member core ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = CoreId> + '_ {
        BitIter::new(&self.words).map(CoreId)
    }
}

/// Indexed occupancy of every core: per-core views plus an incrementally
/// maintained idle bitmask and population counters.
///
/// The simulator owns one per run and mutates it through
/// [`place`](CoreIndex::place) / [`vacate`](CoreIndex::vacate) /
/// [`set_online`](CoreIndex::set_online); schedulers receive `&CoreIndex`
/// and query it. Invariant: bit `i` of the idle mask is set iff core `i`
/// is vacant *and* online — exactly [`CoreView::is_idle`].
#[derive(Debug, Clone, PartialEq)]
pub struct CoreIndex {
    views: Vec<CoreView>,
    idle_words: Vec<u64>,
    idle_count: usize,
    busy_count: usize,
}

impl CoreIndex {
    /// A machine of `num_cores` cores, all vacant and online.
    pub fn new(num_cores: usize) -> Self {
        let views = (0..num_cores)
            .map(|i| CoreView {
                id: CoreId(i),
                busy: None,
                online: true,
            })
            .collect();
        let mut idle_words = vec![u64::MAX; word_count(num_cores)];
        mask_tail(&mut idle_words, num_cores);
        CoreIndex {
            views,
            idle_words,
            idle_count: num_cores,
            busy_count: 0,
        }
    }

    /// Build the index from existing per-core snapshots (used by the
    /// linear-scan reference loop, which reconstructs the index per
    /// scheduler offer, and by test fixtures).
    pub fn from_views(views: &[CoreView]) -> Self {
        let mut index = CoreIndex {
            views: views.to_vec(),
            idle_words: vec![0; word_count(views.len())],
            idle_count: 0,
            busy_count: 0,
        };
        for (i, view) in views.iter().enumerate() {
            debug_assert_eq!(view.id.0, i, "views must be in core order");
            if view.busy.is_some() {
                index.busy_count += 1;
            }
            if view.is_idle() {
                index.idle_words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
                index.idle_count += 1;
            }
        }
        index
    }

    /// Number of cores in the machine.
    pub fn num_cores(&self) -> usize {
        self.views.len()
    }

    /// Snapshot of one core.
    pub fn view(&self, core: CoreId) -> &CoreView {
        &self.views[core.0]
    }

    /// All per-core snapshots, in core order.
    pub fn views(&self) -> &[CoreView] {
        &self.views
    }

    /// `true` when `core` is vacant and online (O(1) mask probe).
    pub fn is_idle(&self, core: CoreId) -> bool {
        self.idle_words[core.0 / WORD_BITS] & (1u64 << (core.0 % WORD_BITS)) != 0
    }

    /// Number of idle (vacant ∧ online) cores, maintained incrementally.
    pub fn idle_count(&self) -> usize {
        self.idle_count
    }

    /// Number of occupied cores, maintained incrementally.
    pub fn busy_count(&self) -> usize {
        self.busy_count
    }

    /// Lowest-numbered idle core, via trailing-zeros scan of the mask
    /// words: O(W) where W = ⌈n/64⌉.
    pub fn first_idle(&self) -> Option<CoreId> {
        for (w, &word) in self.idle_words.iter().enumerate() {
            if word != 0 {
                return Some(CoreId(w * WORD_BITS + word.trailing_zeros() as usize));
            }
        }
        None
    }

    /// Lowest-numbered idle core that is a member of `set`: one AND plus
    /// a trailing-zeros scan per word.
    pub fn first_idle_in(&self, set: &CoreSet) -> Option<CoreId> {
        for (w, (&idle, &members)) in self.idle_words.iter().zip(&set.words).enumerate() {
            let both = idle & members;
            if both != 0 {
                return Some(CoreId(w * WORD_BITS + both.trailing_zeros() as usize));
            }
        }
        None
    }

    /// Idle core ids in ascending order (word-by-word trailing-zeros
    /// walk; O(W + k) for k idle cores).
    pub fn idle_cores(&self) -> impl Iterator<Item = CoreId> + '_ {
        BitIter::new(&self.idle_words).map(CoreId)
    }

    /// Occupy `core` with `info`. Panics if the core is already busy;
    /// placements on offline cores are a simulator bug and panic too.
    pub fn place(&mut self, core: CoreId, info: BusyInfo) {
        let view = &mut self.views[core.0];
        assert!(view.busy.is_none(), "place on a busy core");
        assert!(view.online, "place on an offline core");
        view.busy = Some(info);
        self.idle_words[core.0 / WORD_BITS] &= !(1u64 << (core.0 % WORD_BITS));
        self.idle_count -= 1;
        self.busy_count += 1;
    }

    /// Clear `core`'s occupancy and return it, or `None` if the core was
    /// already vacant. An online core becomes idle again.
    pub fn vacate(&mut self, core: CoreId) -> Option<BusyInfo> {
        let view = &mut self.views[core.0];
        let info = view.busy.take()?;
        self.busy_count -= 1;
        if view.online {
            self.idle_words[core.0 / WORD_BITS] |= 1u64 << (core.0 % WORD_BITS);
            self.idle_count += 1;
        }
        Some(info)
    }

    /// Flip `core`'s availability. Taking a *vacant* core offline removes
    /// it from the idle mask; callers must evict any occupant first (the
    /// fault path does, with a refund). Bringing a core back online
    /// restores its idle bit if it is vacant.
    pub fn set_online(&mut self, core: CoreId, online: bool) {
        let view = &mut self.views[core.0];
        if view.online == online {
            return;
        }
        view.online = online;
        if view.busy.is_none() {
            if online {
                self.idle_words[core.0 / WORD_BITS] |= 1u64 << (core.0 % WORD_BITS);
                self.idle_count += 1;
            } else {
                self.idle_words[core.0 / WORD_BITS] &= !(1u64 << (core.0 % WORD_BITS));
                self.idle_count -= 1;
            }
        }
    }
}

/// Clear mask bits at and above `bits` in the final word.
fn mask_tail(words: &mut [u64], bits: usize) {
    let tail = bits % WORD_BITS;
    if tail != 0 {
        if let Some(last) = words.last_mut() {
            *last &= (1u64 << tail) - 1;
        }
    }
}

/// Ascending iterator over set bit positions of a word slice.
pub(crate) struct BitIter<'a> {
    words: &'a [u64],
    word_index: usize,
    current: u64,
}

impl<'a> BitIter<'a> {
    pub(crate) fn new(words: &'a [u64]) -> Self {
        BitIter {
            words,
            word_index: 0,
            current: words.first().copied().unwrap_or(0),
        }
    }
}

impl Iterator for BitIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_index += 1;
            self.current = *self.words.get(self.word_index)?;
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_index * WORD_BITS + bit)
    }
}

/// Dense bitvec keyed by job sequence number, tracking which jobs have
/// already stalled at least once. Replaces the hot-loop
/// `HashSet<u64>` so counting stall *episodes* costs one shift and mask
/// per offer instead of a hash.
#[derive(Debug, Default)]
pub(crate) struct SeqBitSet {
    words: Vec<u64>,
}

impl SeqBitSet {
    pub(crate) fn new() -> Self {
        SeqBitSet::default()
    }

    /// Set the bit for `seq`; returns `true` if it was newly set (the
    /// `HashSet::insert` contract the episode counter relies on).
    pub(crate) fn insert(&mut self, seq: u64) -> bool {
        let word = (seq / WORD_BITS as u64) as usize;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let mask = 1u64 << (seq % WORD_BITS as u64);
        let newly = self.words[word] & mask == 0;
        self.words[word] |= mask;
        newly
    }

    /// Clear the bit for `seq` (no-op if never set).
    pub(crate) fn remove(&mut self, seq: u64) {
        let word = (seq / WORD_BITS as u64) as usize;
        if let Some(w) = self.words.get_mut(word) {
            *w &= !(1u64 << (seq % WORD_BITS as u64));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;
    use workloads::BenchmarkId;

    fn job(seq: u64) -> Job {
        Job {
            seq,
            benchmark: BenchmarkId(0),
            arrival: 0,
            priority: 0,
        }
    }

    fn busy(seq: u64) -> BusyInfo {
        BusyInfo {
            job: job(seq),
            started: 0,
            busy_until: 100,
        }
    }

    #[test]
    fn fresh_index_is_fully_idle() {
        let index = CoreIndex::new(130);
        assert_eq!(index.num_cores(), 130);
        assert_eq!(index.idle_count(), 130);
        assert_eq!(index.busy_count(), 0);
        assert_eq!(index.first_idle(), Some(CoreId(0)));
        assert_eq!(index.idle_cores().count(), 130);
        assert!(index.is_idle(CoreId(129)));
    }

    #[test]
    fn place_and_vacate_maintain_mask_and_counts() {
        let mut index = CoreIndex::new(70);
        index.place(CoreId(0), busy(1));
        index.place(CoreId(65), busy(2));
        assert_eq!(index.idle_count(), 68);
        assert_eq!(index.busy_count(), 2);
        assert!(!index.is_idle(CoreId(0)));
        assert!(!index.is_idle(CoreId(65)));
        assert_eq!(index.first_idle(), Some(CoreId(1)));

        let info = index.vacate(CoreId(0)).expect("occupied");
        assert_eq!(info.job.seq, 1);
        assert!(index.is_idle(CoreId(0)));
        assert_eq!(index.first_idle(), Some(CoreId(0)));
        assert_eq!(index.vacate(CoreId(0)), None);
    }

    #[test]
    #[should_panic(expected = "place on a busy core")]
    fn double_placement_panics() {
        let mut index = CoreIndex::new(2);
        index.place(CoreId(1), busy(1));
        index.place(CoreId(1), busy(2));
    }

    #[test]
    fn offline_cores_leave_the_idle_mask_but_not_busy_accounting() {
        let mut index = CoreIndex::new(66);
        index.set_online(CoreId(65), false);
        assert_eq!(index.idle_count(), 65);
        assert!(!index.is_idle(CoreId(65)));
        assert!(!index.view(CoreId(65)).online);

        // Redundant transitions are no-ops.
        index.set_online(CoreId(65), false);
        assert_eq!(index.idle_count(), 65);

        index.set_online(CoreId(65), true);
        assert!(index.is_idle(CoreId(65)));
        assert_eq!(index.idle_count(), 66);
    }

    #[test]
    fn online_transition_of_a_busy_core_does_not_resurrect_the_idle_bit() {
        let mut index = CoreIndex::new(4);
        index.place(CoreId(2), busy(7));
        index.set_online(CoreId(2), false);
        index.set_online(CoreId(2), true);
        assert!(!index.is_idle(CoreId(2)));
        assert_eq!(index.busy_count(), 1);
        assert_eq!(index.idle_count(), 3);
    }

    #[test]
    fn from_views_matches_incremental_construction() {
        let mut incremental = CoreIndex::new(67);
        incremental.place(CoreId(3), busy(1));
        incremental.place(CoreId(64), busy(2));
        incremental.set_online(CoreId(66), false);
        let rebuilt = CoreIndex::from_views(incremental.views());
        assert_eq!(rebuilt, incremental);
    }

    #[test]
    fn first_idle_in_intersects_class_membership_with_the_idle_mask() {
        let set = CoreSet::from_cores(70, [CoreId(1), CoreId(65), CoreId(69)]);
        assert_eq!(set.len(), 3);
        assert!(!set.is_empty());
        assert!(set.contains(CoreId(65)));
        assert!(!set.contains(CoreId(2)));
        assert_eq!(
            set.iter().collect::<Vec<_>>(),
            vec![CoreId(1), CoreId(65), CoreId(69)]
        );

        let mut index = CoreIndex::new(70);
        index.place(CoreId(1), busy(1));
        assert_eq!(index.first_idle_in(&set), Some(CoreId(65)));
        index.place(CoreId(65), busy(2));
        index.set_online(CoreId(69), false);
        assert_eq!(index.first_idle_in(&set), None);
    }

    #[test]
    fn drain_idle_takes_exactly_the_idle_members() {
        let mut set = CoreSet::from_cores(130, [CoreId(1), CoreId(64), CoreId(100), CoreId(129)]);
        let mut index = CoreIndex::new(130);
        index.place(CoreId(64), busy(1));
        index.set_online(CoreId(100), false);
        let mut drained = Vec::new();
        set.drain_idle(&index, |core| drained.push(core));
        assert_eq!(drained, vec![CoreId(1), CoreId(129)]);
        assert_eq!(
            set.iter().collect::<Vec<_>>(),
            vec![CoreId(64), CoreId(100)]
        );
        set.remove(CoreId(64));
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![CoreId(100)]);
    }

    #[test]
    fn idle_cores_iterates_in_ascending_order_across_words() {
        let mut index = CoreIndex::new(130);
        for i in 0..130 {
            if i % 3 != 0 {
                index.place(CoreId(i), busy(i as u64));
            }
        }
        let idle: Vec<usize> = index.idle_cores().map(|c| c.0).collect();
        let expected: Vec<usize> = (0..130).filter(|i| i % 3 == 0).collect();
        assert_eq!(idle, expected);
    }

    #[test]
    fn seq_bitset_matches_hashset_insert_remove_semantics() {
        let mut set = SeqBitSet::new();
        assert!(set.insert(3));
        assert!(!set.insert(3));
        set.remove(3);
        assert!(set.insert(3));
        assert!(set.insert(1_000));
        set.remove(2_000); // never inserted: no-op, no panic
        assert!(!set.insert(1_000));
    }
}
