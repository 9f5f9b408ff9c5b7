//! Idle-energy accrual by idle-power class.

use crate::scheduler::CoreId;

/// A run's idle energy, kept as integer idle cycles per idle-power class
/// and converted to nJ only when read.
///
/// A class is every core whose idle power has the same bits. Each class
/// keeps three integers: its idle core count, the cycles of its closed
/// idle windows, and the sum of its open windows' start cycles. A core
/// becoming idle ([`open`](Self::open)), leaving idleness
/// ([`close`](Self::close)) or changing class is O(1), a clock advance
/// costs nothing, and the total at `now`,
///
/// ```text
/// Σ power × (closed + count·now − Σsince)
/// ```
///
/// costs O(classes) ([`total_nj`](Self::total_nj)): one product per class
/// with idle cycles, summed in ascending power order. The
/// [`LedgerAuditor`](crate::LedgerAuditor) replay adds whole spans with
/// [`charge`](Self::charge) and reads the same fold, and
/// `hetero_oracles::sim::run_reference` folds its per-core spans the same
/// way, so all three agree to the bit.
///
/// Cycle counters are `u64` with checked arithmetic: an overflow panics
/// in the simulator and is a reported violation in the auditor.
#[derive(Debug, Clone, Default)]
pub(crate) struct IdleLedger {
    /// One class per distinct idle power, in ascending power order
    /// ([`f64::total_cmp`], under which two powers are equal exactly when
    /// their bits are).
    classes: Vec<IdleClass>,
    /// Per core: the index of its class, once it has one, and the cycle
    /// its idle window opened while it is idle.
    cores: Vec<CoreSlot>,
}

#[derive(Debug, Clone, Copy)]
struct IdleClass {
    /// Idle power of every member, in nJ/cycle.
    power: f64,
    /// Members whose idle window is open.
    count: u64,
    /// Idle cycles of the class's closed windows.
    closed: u64,
    /// Sum of the open windows' start cycles.
    since: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct CoreSlot {
    class: Option<usize>,
    since: Option<u64>,
}

const OVERFLOW: &str = "idle cycles of an idle-power class overflow u64";

impl IdleLedger {
    /// A ledger for `num_cores` cores, none idle yet.
    pub(crate) fn new(num_cores: usize) -> Self {
        IdleLedger {
            cores: vec![CoreSlot::default(); num_cores],
            ..IdleLedger::default()
        }
    }

    /// The index of `power`'s class, created on first use. A new class
    /// shifts the indices of the classes above it, so the cores' indices
    /// move with them.
    fn class_of(&mut self, power: f64) -> usize {
        let k = match self
            .classes
            .binary_search_by(|class| class.power.total_cmp(&power))
        {
            Ok(k) => return k,
            Err(k) => k,
        };
        self.classes.insert(
            k,
            IdleClass {
                power,
                count: 0,
                closed: 0,
                since: 0,
            },
        );
        for class in self.cores.iter_mut().filter_map(|slot| slot.class.as_mut()) {
            if *class >= k {
                *class += 1;
            }
        }
        k
    }

    /// `core` is idle at `power` from `now` on: open its window, or move
    /// an open window at another power into `power`'s class. A no-op when
    /// the core is already idle at `power`.
    ///
    /// # Panics
    ///
    /// If the class's sum of window starts overflows `u64`.
    #[inline]
    pub(crate) fn open(&mut self, core: CoreId, power: f64, now: u64) {
        let slot = self.cores[core.0];
        let kept = slot
            .class
            .filter(|&k| self.classes[k].power.to_bits() == power.to_bits());
        if kept.is_some() && slot.since.is_some() {
            return;
        }
        self.close(core, now);
        let k = kept.unwrap_or_else(|| self.class_of(power));
        let class = &mut self.classes[k];
        class.count += 1;
        class.since = class.since.checked_add(now).expect(OVERFLOW);
        self.cores[core.0] = CoreSlot {
            class: Some(k),
            since: Some(now),
        };
    }

    /// `core` stops being idle at `now`: close its window, if open.
    ///
    /// # Panics
    ///
    /// If the class's closed idle cycles overflow `u64`.
    #[inline]
    pub(crate) fn close(&mut self, core: CoreId, now: u64) {
        let slot = &mut self.cores[core.0];
        let (Some(k), Some(since)) = (slot.class, slot.since.take()) else {
            return;
        };
        let class = &mut self.classes[k];
        class.count -= 1;
        class.since -= since;
        class.closed = class.closed.checked_add(now - since).expect(OVERFLOW);
    }

    /// The idle power of `core`'s open window.
    ///
    /// # Panics
    ///
    /// If `core` has never been idle.
    pub(crate) fn power(&self, core: CoreId) -> f64 {
        let class = self.cores[core.0].class.expect("an idle core has a class");
        self.classes[class].power
    }

    /// Add `cycles` closed idle cycles at `power`. Returns `false`, adding
    /// nothing, when the class's cycles would overflow `u64`.
    pub(crate) fn charge(&mut self, power: f64, cycles: u64) -> bool {
        let k = self.class_of(power);
        let class = &mut self.classes[k];
        match class.closed.checked_add(cycles) {
            Some(closed) => {
                class.closed = closed;
                true
            }
            None => false,
        }
    }

    /// The idle energy accrued up to `now`, in nJ: each class's power
    /// times its idle cycles, summed in ascending power order over the
    /// classes that have any.
    ///
    /// # Panics
    ///
    /// If a class's idle cycles overflow `u64`.
    pub(crate) fn total_nj(&self, now: u64) -> f64 {
        let mut total = 0.0;
        for class in &self.classes {
            let cycles = class
                .count
                .checked_mul(now)
                .and_then(|open| open.checked_add(class.closed))
                .expect(OVERFLOW)
                - class.since;
            if cycles > 0 {
                total += class.power * cycles as f64;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_accrue_per_class_and_fold_in_ascending_power_order() {
        let mut ledger = IdleLedger::new(3);
        ledger.open(CoreId(0), 2.0, 0);
        ledger.open(CoreId(1), 0.5, 10);
        ledger.open(CoreId(2), 2.0, 5);
        ledger.close(CoreId(0), 20);
        // Class 0.5: core 1 over [10, 30). Class 2.0: core 0 over [0, 20)
        // and core 2 over [5, 30).
        assert_eq!(ledger.total_nj(30), 0.5 * 20.0 + 2.0 * 45.0);
        // Closed windows stay put; open ones keep growing.
        assert_eq!(ledger.total_nj(40), 0.5 * 30.0 + 2.0 * 55.0);
    }

    #[test]
    fn reopening_at_the_same_power_is_a_no_op_and_a_new_power_moves_the_window() {
        let mut ledger = IdleLedger::new(1);
        ledger.open(CoreId(0), 1.0, 0);
        ledger.open(CoreId(0), 1.0, 10);
        assert_eq!(ledger.total_nj(10), 10.0);
        ledger.open(CoreId(0), 3.0, 10);
        assert_eq!(ledger.total_nj(12), 10.0 + 3.0 * 2.0);
        // A placement and a zero-length idle window leave no cycles.
        ledger.close(CoreId(0), 12);
        ledger.open(CoreId(0), 3.0, 20);
        ledger.close(CoreId(0), 20);
        ledger.close(CoreId(0), 25);
        assert_eq!(ledger.total_nj(100), 10.0 + 3.0 * 2.0);
    }

    #[test]
    fn charged_spans_fold_like_closed_windows() {
        let mut windows = IdleLedger::new(2);
        windows.open(CoreId(0), 0.7, 0);
        windows.open(CoreId(1), 0.1, 0);
        windows.close(CoreId(0), 3);
        windows.close(CoreId(1), 9);
        let mut spans = IdleLedger::default();
        assert!(spans.charge(0.7, 3));
        assert!(spans.charge(0.1, 4));
        assert!(spans.charge(0.1, 5));
        assert_eq!(spans.total_nj(0).to_bits(), windows.total_nj(9).to_bits());
        assert_eq!(
            spans.total_nj(0).to_bits(),
            (0.1 * 9.0 + 0.7 * 3.0f64).to_bits()
        );
        assert!(!spans.charge(0.1, u64::MAX));
        assert_eq!(spans.total_nj(0).to_bits(), windows.total_nj(9).to_bits());
    }

    #[test]
    #[should_panic(expected = "overflow u64")]
    fn open_cycles_past_u64_panic_with_a_message() {
        let mut ledger = IdleLedger::new(2);
        ledger.open(CoreId(0), 1.0, 0);
        ledger.open(CoreId(1), 1.0, 0);
        let _ = ledger.total_nj(u64::MAX);
    }
}
