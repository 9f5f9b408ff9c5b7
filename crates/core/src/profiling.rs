//! The profiling table (paper Sec. IV.A–B).
//!
//! Core 4 "contains a profiling table that stores profiling information for
//! all applications, including the execution statistics for the base
//! configuration, and the performance and energy consumption of any core
//! configurations that have been explored during design space exploration.
//! This storage eliminates future profiling executions and enables the
//! tuning heuristic to operate across multiple application executions."

use crate::tuning::{TuningExplorer, TuningStatus};
use cache_sim::{design_space, CacheConfig, CacheSizeKb, DESIGN_SPACE_LEN};
use energy_model::ExecutionCost;
use workloads::{BenchmarkId, ExecutionStatistics};

/// Everything the scheduler has learned about one application.
#[derive(Debug, Clone)]
pub struct ProfileEntry {
    /// Hardware-counter statistics from the profiling execution in the
    /// base configuration.
    pub statistics: ExecutionStatistics,
    /// Cost of the profiling execution itself (base configuration).
    pub base_cost: ExecutionCost,
    /// The ANN's best-cache-size prediction for this application.
    pub predicted_best_size: CacheSizeKb,
    /// Energy/performance of every configuration physically executed,
    /// indexed by [`CacheConfig::design_space_index`].
    explored: [Option<ExecutionCost>; DESIGN_SPACE_LEN],
    /// Per-core-size tuning cursors (Figure 5 state), indexed by size.
    tuners: [Option<TuningExplorer>; CacheSizeKb::ALL.len()],
}

impl ProfileEntry {
    /// Create an entry from a completed profiling execution.
    pub fn new(
        statistics: ExecutionStatistics,
        base_cost: ExecutionCost,
        predicted_best_size: CacheSizeKb,
    ) -> Self {
        ProfileEntry {
            statistics,
            base_cost,
            predicted_best_size,
            explored: [None; DESIGN_SPACE_LEN],
            tuners: Default::default(),
        }
    }

    /// Record the observed cost of executing this application in `config`.
    /// Also advances the tuning explorer for `config.size()` when that
    /// explorer asked for this configuration.
    pub fn record_execution(&mut self, config: CacheConfig, cost: ExecutionCost) {
        self.explored[config.design_space_index()] = Some(cost);
        let tuner = self.tuner_mut(config.size());
        if let TuningStatus::Explore(wanted) = tuner.status() {
            if wanted == config {
                tuner.record(config, cost.total_nj());
            }
        }
    }

    /// The stored cost of `config`, if this configuration has ever been
    /// executed.
    pub fn known_cost(&self, config: CacheConfig) -> Option<ExecutionCost> {
        self.explored[config.design_space_index()]
    }

    /// Number of distinct configurations executed so far.
    pub fn explored_count(&self) -> usize {
        self.explored.iter().flatten().count()
    }

    /// Iterate over all explored `(configuration, cost)` pairs in
    /// design-space order (which is also the order of their names).
    pub fn explored(&self) -> impl Iterator<Item = (CacheConfig, ExecutionCost)> + '_ {
        design_space()
            .zip(&self.explored)
            .filter_map(|(config, cost)| Some((config, (*cost)?)))
    }

    /// The tuning cursor for cores of `size`, creating it on first use.
    pub fn tuner_mut(&mut self, size: CacheSizeKb) -> &mut TuningExplorer {
        self.tuners[size as usize].get_or_insert_with(|| TuningExplorer::new(size))
    }

    /// The tuning cursor for cores of `size`, if exploration has begun.
    pub fn tuner(&self, size: CacheSizeKb) -> Option<&TuningExplorer> {
        self.tuners[size as usize].as_ref()
    }

    /// `true` once the best configuration on cores of `size` is known
    /// (tuning finished there).
    pub fn is_tuned(&self, size: CacheSizeKb) -> bool {
        self.tuner(size).is_some_and(TuningExplorer::is_done)
    }

    /// The concluded best configuration and its cost on cores of `size`,
    /// once tuning is done there.
    pub fn best_known_for_size(&self, size: CacheSizeKb) -> Option<(CacheConfig, ExecutionCost)> {
        let tuner = self.tuner(size)?;
        if !tuner.is_done() {
            return None;
        }
        let (config, _) = tuner.best()?;
        let cost = self.known_cost(config)?;
        Some((config, cost))
    }
}

/// The system-wide profiling table, indexed by benchmark id (the paper:
/// "each benchmark was assigned an identification number, which indexed
/// into the profiling table").
///
/// ```
/// use hetero_core::ProfilingTable;
/// use workloads::BenchmarkId;
///
/// let table = ProfilingTable::new();
/// assert!(!table.contains(BenchmarkId(0)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ProfilingTable {
    entries: Vec<Option<ProfileEntry>>,
}

impl ProfilingTable {
    /// An empty table.
    pub fn new() -> Self {
        ProfilingTable::default()
    }

    /// `true` if `benchmark` has been profiled.
    pub fn contains(&self, benchmark: BenchmarkId) -> bool {
        self.get(benchmark).is_some()
    }

    /// Insert the result of a profiling execution. Returns the previous
    /// entry if the benchmark had somehow been profiled before.
    pub fn insert(&mut self, benchmark: BenchmarkId, entry: ProfileEntry) -> Option<ProfileEntry> {
        if self.entries.len() <= benchmark.0 {
            self.entries.resize_with(benchmark.0 + 1, || None);
        }
        self.entries[benchmark.0].replace(entry)
    }

    /// Look up a benchmark's profile.
    pub fn get(&self, benchmark: BenchmarkId) -> Option<&ProfileEntry> {
        self.entries.get(benchmark.0)?.as_ref()
    }

    /// Mutable profile access (tuning updates).
    pub fn get_mut(&mut self, benchmark: BenchmarkId) -> Option<&mut ProfileEntry> {
        self.entries.get_mut(benchmark.0)?.as_mut()
    }

    /// Number of profiled benchmarks.
    pub fn len(&self) -> usize {
        self.entries.iter().flatten().count()
    }

    /// `true` when nothing has been profiled yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate over `(benchmark, entry)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (BenchmarkId, &ProfileEntry)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(id, entry)| Some((BenchmarkId(id), entry.as_ref()?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::CacheStats;
    use energy_model::EnergyBreakdown;
    use workloads::InstructionMix;

    fn cost(total: f64, cycles: u64) -> ExecutionCost {
        ExecutionCost {
            cycles,
            energy: EnergyBreakdown {
                dynamic_nj: total,
                static_nj: 0.0,
                idle_nj: 0.0,
            },
        }
    }

    fn entry() -> ProfileEntry {
        let statistics = ExecutionStatistics::new(InstructionMix::new(), CacheStats::new(), 10, 0);
        ProfileEntry::new(statistics, cost(100.0, 10), CacheSizeKb::K4)
    }

    fn config(text: &str) -> CacheConfig {
        CacheConfig::parse(text).unwrap()
    }

    #[test]
    fn table_insert_and_lookup() {
        let mut table = ProfilingTable::new();
        assert!(table.is_empty());
        assert!(table.insert(BenchmarkId(3), entry()).is_none());
        assert!(table.contains(BenchmarkId(3)));
        assert!(!table.contains(BenchmarkId(4)));
        assert_eq!(table.len(), 1);
        assert_eq!(
            table.get(BenchmarkId(3)).unwrap().predicted_best_size,
            CacheSizeKb::K4
        );
    }

    #[test]
    fn record_execution_feeds_the_tuner() {
        let mut e = entry();
        // The 4KB tuner wants 4KB_1W_16B first.
        e.record_execution(config("4KB_1W_16B"), cost(50.0, 5));
        assert_eq!(e.known_cost(config("4KB_1W_16B")).unwrap().total_nj(), 50.0);
        let tuner = e.tuner(CacheSizeKb::K4).unwrap();
        assert_eq!(tuner.explored_count(), 1);
        // Next it wants 2-way.
        assert_eq!(tuner.status(), TuningStatus::Explore(config("4KB_2W_16B")));
    }

    #[test]
    fn out_of_order_execution_does_not_corrupt_the_tuner() {
        let mut e = entry();
        // Executing a configuration the tuner did not ask for (e.g. the
        // core was directly configured) is stored but does not advance the
        // cursor.
        e.record_execution(config("4KB_2W_64B"), cost(40.0, 5));
        assert_eq!(e.known_cost(config("4KB_2W_64B")).unwrap().total_nj(), 40.0);
        assert_eq!(e.tuner(CacheSizeKb::K4).unwrap().explored_count(), 0);
    }

    #[test]
    fn best_known_requires_finished_tuning() {
        let mut e = entry();
        assert_eq!(e.best_known_for_size(CacheSizeKb::K2), None);
        // Drive the 2KB tuner to completion: origin, then a worse 32B line.
        e.record_execution(config("2KB_1W_16B"), cost(10.0, 5));
        assert_eq!(
            e.best_known_for_size(CacheSizeKb::K2),
            None,
            "tuning still in flight"
        );
        e.record_execution(config("2KB_1W_32B"), cost(20.0, 5));
        let (best, best_cost) = e.best_known_for_size(CacheSizeKb::K2).unwrap();
        assert_eq!(best, config("2KB_1W_16B"));
        assert_eq!(best_cost.total_nj(), 10.0);
        assert!(e.is_tuned(CacheSizeKb::K2));
    }

    #[test]
    fn explored_count_counts_distinct_configs() {
        let mut e = entry();
        e.record_execution(config("8KB_1W_16B"), cost(10.0, 1));
        e.record_execution(config("8KB_1W_16B"), cost(10.0, 1));
        e.record_execution(config("8KB_2W_16B"), cost(9.0, 1));
        assert_eq!(e.explored_count(), 2);
    }

    #[test]
    fn iteration_is_in_benchmark_order() {
        let mut table = ProfilingTable::new();
        table.insert(BenchmarkId(5), entry());
        table.insert(BenchmarkId(1), entry());
        let ids: Vec<usize> = table.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![1, 5]);
    }

    #[test]
    fn iteration_skips_gaps_in_ascending_id_order() {
        let mut table = ProfilingTable::new();
        for id in [9, 0, 4, 2] {
            table.insert(BenchmarkId(id), entry());
        }
        let ids: Vec<usize> = table.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 2, 4, 9]);
        assert_eq!(table.len(), 4);
        assert!(!table.contains(BenchmarkId(3)), "a gap below the last id");
        assert!(table.get(BenchmarkId(10)).is_none(), "past the last id");
        assert!(table.insert(BenchmarkId(4), entry()).is_some());
        assert_eq!(table.len(), 4);
    }

    #[test]
    fn explored_walks_configurations_in_name_order() {
        let mut e = entry();
        for (i, name) in ["8KB_2W_32B", "2KB_1W_64B", "4KB_1W_16B", "8KB_1W_64B"]
            .into_iter()
            .enumerate()
        {
            e.record_execution(config(name), cost(i as f64, 1));
        }
        let names: Vec<String> = e.explored().map(|(c, _)| c.to_string()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert_eq!(e.explored_count(), 4);
    }
}
