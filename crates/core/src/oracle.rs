//! Ground truth: what executing each benchmark in each configuration
//! *would* cost.
//!
//! In the paper this information exists physically — an execution simply
//! happens and its energy/cycles are whatever they are; SimpleScalar+CACTI
//! played this role offline. Here [`SuiteOracle`] precomputes the full
//! (benchmark × configuration) cost table by sweeping every kernel trace
//! through the cache simulator and the Figure 4 energy model.
//!
//! **Knowledge discipline.** The oracle is the *physics* of the simulated
//! world, not scheduler knowledge: schedulers may query it only for
//! executions they actually perform (the result of running a job) or via
//! the [`ProfilingTable`](crate::ProfilingTable), which records what has
//! been legitimately observed. The one exception is the paper's "optimal"
//! comparator system, which is defined to know best configurations a
//! priori.

use cache_sim::{
    design_space, CacheConfig, CacheSizeKb, CacheStats, BASE_CONFIG, DESIGN_SPACE_LEN,
};
use energy_model::{EnergyModel, ExecutionCost};
use workloads::{BenchmarkId, ExecutionStatistics, Suite};

/// Per-benchmark ground truth across the full design space.
#[derive(Debug, Clone)]
pub struct BenchmarkTruth {
    /// Cycles of the compute portion (configuration-independent).
    pub cpu_cycles: u64,
    /// Cache statistics per configuration, in [`design_space`] order.
    pub stats: Vec<CacheStats>,
    /// Execution cost per configuration, in [`design_space`] order.
    pub costs: Vec<ExecutionCost>,
    /// Hardware-counter features from the base-configuration execution.
    pub features: ExecutionStatistics,
}

/// The complete (benchmark × configuration) cost table for a suite.
///
/// ```
/// use energy_model::EnergyModel;
/// use hetero_core::SuiteOracle;
/// use workloads::{BenchmarkId, Suite};
/// use cache_sim::BASE_CONFIG;
///
/// let suite = Suite::eembc_like_small();
/// let oracle = SuiteOracle::build(&suite, &EnergyModel::default());
/// let best = oracle.best_config(BenchmarkId(0));
/// let base = oracle.cost(BenchmarkId(0), BASE_CONFIG);
/// assert!(best.1.total_nj() <= base.total_nj());
/// ```
#[derive(Debug, Clone)]
pub struct SuiteOracle {
    truths: Vec<BenchmarkTruth>,
}

impl SuiteOracle {
    /// Sweep every kernel of `suite` through all 18 configurations.
    ///
    /// This is the reproduction of the paper's offline characterisation
    /// ("we used SimpleScalar to record the benchmarks' cache accesses and
    /// miss rates for every cache configuration").
    ///
    /// Benchmarks are characterised with the single-pass fused sweep and
    /// sharded across worker threads (`HETERO_THREADS` governs the count;
    /// see [`hetero_parallel`]). The result is bit-identical at any worker
    /// count — see [`build_with_threads`](Self::build_with_threads).
    pub fn build(suite: &Suite, model: &EnergyModel) -> Self {
        Self::build_with_threads(suite, model, hetero_parallel::worker_count())
    }

    /// [`build`](Self::build) with an explicit worker count. `workers = 1`
    /// runs inline on the caller (no threads are spawned); any larger
    /// count shards benchmarks across scoped threads and merges results
    /// by index, producing byte-identical output.
    pub fn build_with_threads(suite: &Suite, model: &EnergyModel, workers: usize) -> Self {
        Self::build_with(suite, workers, |run| {
            let sweep = cache_sim::sweep(&run.trace);
            sweep
                .into_iter()
                .map(|(config, stats)| (stats, model.execution(config, &stats, run.cpu_cycles)))
                .unzip()
        })
    }

    /// [`build_with_threads`](Self::build_with_threads) with the
    /// characterisation sweep bracketed by a
    /// [`StageObserver`](crate::StageObserver) (stage
    /// `oracle_characterise`), for pipeline profiling. Observation never
    /// changes the result — the observer only sees stage boundaries.
    pub fn build_observed(
        suite: &Suite,
        model: &EnergyModel,
        workers: usize,
        observer: &mut dyn crate::StageObserver,
    ) -> Self {
        crate::observed(observer, "oracle_characterise", || {
            Self::build_with_threads(suite, model, workers)
        })
    }

    /// Like [`build`](Self::build), but with every L1 configuration backed
    /// by a private L2 (the paper's future-work hierarchy extension; see
    /// `energy-model::l2`). The per-configuration `stats` remain the L1
    /// counters; costs include the L2's latency, access energy, and
    /// leakage.
    pub fn build_with_l2(suite: &Suite, model: &EnergyModel, l2: &energy_model::L2Params) -> Self {
        Self::build_with_l2_threads(suite, model, l2, hetero_parallel::worker_count())
    }

    /// [`build_with_l2`](Self::build_with_l2) with an explicit worker
    /// count (same contract as [`build_with_threads`](Self::build_with_threads)).
    pub fn build_with_l2_threads(
        suite: &Suite,
        model: &EnergyModel,
        l2: &energy_model::L2Params,
        workers: usize,
    ) -> Self {
        Self::build_with(suite, workers, |run| {
            let sweep = cache_sim::sweep_hierarchy(l2.geometry, &run.trace);
            sweep
                .into_iter()
                .map(|(config, stats)| {
                    (
                        stats.l1,
                        model.execution_with_l2(config, &stats, run.cpu_cycles, l2),
                    )
                })
                .unzip()
        })
    }

    /// Build the table with `characterise` mapping each kernel run to its
    /// stats and costs in [`design_space`] order, sharded across `workers`
    /// as in [`build_with_threads`](Self::build_with_threads). The other
    /// constructors pass fused sweeps; `hetero-oracles` passes the serial one.
    pub fn build_with(
        suite: &Suite,
        workers: usize,
        characterise: impl Fn(&workloads::KernelRun) -> (Vec<CacheStats>, Vec<ExecutionCost>) + Sync,
    ) -> Self {
        let kernels = suite.as_slice();
        let truths = hetero_parallel::map_indexed(kernels.len(), workers, |index| {
            let run = kernels[index].run();
            let (stats, costs) = characterise(&run);
            debug_assert_eq!(stats.len(), DESIGN_SPACE_LEN);
            let base_index = BASE_CONFIG.design_space_index();
            let base_stats = stats[base_index];
            let base_cost = costs[base_index];
            let stall_cycles = base_cost.cycles - run.cpu_cycles;
            let features =
                ExecutionStatistics::new(run.mix, base_stats, base_cost.cycles, stall_cycles);
            BenchmarkTruth {
                cpu_cycles: run.cpu_cycles,
                stats,
                costs,
                features,
            }
        });
        SuiteOracle { truths }
    }

    /// Number of benchmarks covered.
    pub fn len(&self) -> usize {
        self.truths.len()
    }

    /// `true` when the oracle covers no benchmarks.
    pub fn is_empty(&self) -> bool {
        self.truths.is_empty()
    }

    /// All benchmark ids covered.
    pub fn benchmarks(&self) -> impl Iterator<Item = BenchmarkId> + '_ {
        (0..self.truths.len()).map(BenchmarkId)
    }

    /// The full truth record for one benchmark.
    ///
    /// # Panics
    ///
    /// Panics if `benchmark` is out of range.
    pub fn truth(&self, benchmark: BenchmarkId) -> &BenchmarkTruth {
        &self.truths[benchmark.0]
    }

    /// Cost of executing `benchmark` in `config`.
    ///
    /// # Panics
    ///
    /// Panics if `benchmark` is out of range.
    pub fn cost(&self, benchmark: BenchmarkId, config: CacheConfig) -> ExecutionCost {
        self.truths[benchmark.0].costs[config.design_space_index()]
    }

    /// Cache statistics of `benchmark` in `config`.
    ///
    /// # Panics
    ///
    /// Panics if `benchmark` is out of range.
    pub fn stats(&self, benchmark: BenchmarkId, config: CacheConfig) -> CacheStats {
        self.truths[benchmark.0].stats[config.design_space_index()]
    }

    /// Base-configuration hardware-counter features of `benchmark` (what a
    /// profiling execution observes).
    pub fn execution_statistics(&self, benchmark: BenchmarkId) -> ExecutionStatistics {
        self.truths[benchmark.0].features
    }

    /// The globally lowest-energy configuration for `benchmark`.
    pub fn best_config(&self, benchmark: BenchmarkId) -> (CacheConfig, ExecutionCost) {
        self.best_matching(benchmark, |_| true)
    }

    /// The lowest-energy configuration for `benchmark` among those of the
    /// given cache size (i.e. the best configuration *on that core*).
    pub fn best_config_with_size(
        &self,
        benchmark: BenchmarkId,
        size: CacheSizeKb,
    ) -> (CacheConfig, ExecutionCost) {
        self.best_matching(benchmark, |c| c.size() == size)
    }

    /// The benchmark's best cache size — the ANN's training label and the
    /// quantity that identifies its best core.
    pub fn best_size(&self, benchmark: BenchmarkId) -> CacheSizeKb {
        self.best_config(benchmark).0.size()
    }

    fn best_matching(
        &self,
        benchmark: BenchmarkId,
        keep: impl Fn(&CacheConfig) -> bool,
    ) -> (CacheConfig, ExecutionCost) {
        let truth = &self.truths[benchmark.0];
        design_space()
            .enumerate()
            .filter(|(_, c)| keep(c))
            .map(|(i, c)| (c, truth.costs[i]))
            .min_by(|a, b| {
                a.1.total_nj()
                    .partial_cmp(&b.1.total_nj())
                    .expect("energies are finite")
            })
            .expect("design space is never empty")
    }
}

/// Compile-time guard that cost tables stay in design-space order.
const _: () = assert!(DESIGN_SPACE_LEN == 18);

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::Associativity;

    fn oracle() -> SuiteOracle {
        SuiteOracle::build(&Suite::eembc_like_small(), &EnergyModel::default())
    }

    #[test]
    fn covers_every_benchmark_and_configuration() {
        let oracle = oracle();
        assert_eq!(oracle.len(), 20);
        for benchmark in oracle.benchmarks() {
            let truth = oracle.truth(benchmark);
            assert_eq!(truth.costs.len(), DESIGN_SPACE_LEN);
            assert_eq!(truth.stats.len(), DESIGN_SPACE_LEN);
            for cost in &truth.costs {
                assert!(cost.cycles >= truth.cpu_cycles);
                assert!(cost.total_nj() > 0.0);
            }
        }
    }

    #[test]
    fn best_config_is_minimal_over_the_space() {
        let oracle = oracle();
        for benchmark in oracle.benchmarks() {
            let (_, best) = oracle.best_config(benchmark);
            for config in design_space() {
                assert!(
                    best.total_nj() <= oracle.cost(benchmark, config).total_nj() + 1e-9,
                    "{benchmark}: {config} beats the reported best"
                );
            }
        }
    }

    #[test]
    fn best_with_size_respects_the_size_constraint() {
        let oracle = oracle();
        for benchmark in oracle.benchmarks() {
            for size in CacheSizeKb::ALL {
                let (config, cost) = oracle.best_config_with_size(benchmark, size);
                assert_eq!(config.size(), size);
                assert!(cost.total_nj() >= oracle.best_config(benchmark).1.total_nj() - 1e-9);
            }
        }
    }

    #[test]
    fn best_sizes_spread_across_the_design_space() {
        // The property that makes the whole experiment meaningful: the
        // suite must not collapse onto a single best size.
        let oracle = oracle();
        let mut counts = [0usize; 3];
        for benchmark in oracle.benchmarks() {
            let index = match oracle.best_size(benchmark) {
                CacheSizeKb::K2 => 0,
                CacheSizeKb::K4 => 1,
                CacheSizeKb::K8 => 2,
            };
            counts[index] += 1;
        }
        assert!(
            counts.iter().all(|&c| c >= 3),
            "each size should be best for >=3 benchmarks, got {counts:?}"
        );
    }

    #[test]
    fn features_come_from_the_base_configuration() {
        let oracle = oracle();
        let benchmark = BenchmarkId(0);
        let features = oracle.execution_statistics(benchmark);
        let base_stats = oracle.stats(benchmark, BASE_CONFIG);
        assert_eq!(features.cache, base_stats);
        assert_eq!(
            features.total_cycles,
            oracle.cost(benchmark, BASE_CONFIG).cycles
        );
    }

    #[test]
    fn base_config_has_fewest_misses_for_looping_kernels() {
        // The paper: the base configuration "has the lowest number of cache
        // misses" — true for every kernel whose working set fits somewhere.
        let oracle = oracle();
        for benchmark in oracle.benchmarks() {
            let base_misses = oracle.stats(benchmark, BASE_CONFIG).misses();
            let min_misses = design_space()
                .map(|c| oracle.stats(benchmark, c).misses())
                .min()
                .expect("non-empty");
            // Base is 8KB with max associativity and widest lines: nothing
            // should beat it by more than noise (allow equality classes).
            assert!(
                base_misses <= min_misses.saturating_mul(2),
                "{benchmark}: base misses {base_misses} vs min {min_misses}"
            );
        }
    }

    /// Bit-level equality of two oracles: every counter, every f64 energy
    /// (compared via `to_bits`), every feature vector.
    fn assert_bit_identical(a: &SuiteOracle, b: &SuiteOracle, label: &str) {
        assert_eq!(a.len(), b.len(), "{label}: benchmark count");
        for benchmark in a.benchmarks() {
            let (ta, tb) = (a.truth(benchmark), b.truth(benchmark));
            assert_eq!(ta.cpu_cycles, tb.cpu_cycles, "{label} {benchmark}");
            assert_eq!(ta.stats, tb.stats, "{label} {benchmark}: cache stats");
            for (i, (ca, cb)) in ta.costs.iter().zip(&tb.costs).enumerate() {
                assert_eq!(ca.cycles, cb.cycles, "{label} {benchmark} config {i}");
                for (ea, eb) in [
                    (ca.energy.dynamic_nj, cb.energy.dynamic_nj),
                    (ca.energy.static_nj, cb.energy.static_nj),
                    (ca.energy.idle_nj, cb.energy.idle_nj),
                ] {
                    assert_eq!(
                        ea.to_bits(),
                        eb.to_bits(),
                        "{label} {benchmark} config {i}: energy bits"
                    );
                }
            }
            for (fa, fb) in ta
                .features
                .to_vector()
                .iter()
                .zip(tb.features.to_vector().iter())
            {
                assert_eq!(fa.to_bits(), fb.to_bits(), "{label} {benchmark}: features");
            }
        }
    }

    #[test]
    fn threaded_build_is_bit_identical_to_one_worker() {
        let suite = Suite::eembc_like_small();
        let model = EnergyModel::default();
        let one = SuiteOracle::build_with_threads(&suite, &model, 1);
        let four = SuiteOracle::build_with_threads(&suite, &model, 4);
        assert_bit_identical(&one, &four, "workers 1 vs 4");
    }

    #[test]
    fn threaded_l2_build_is_bit_identical_to_one_worker() {
        let suite = Suite::eembc_like_small();
        let model = EnergyModel::default();
        let l2 = energy_model::L2Params::typical();
        let one = SuiteOracle::build_with_l2_threads(&suite, &model, &l2, 1);
        let four = SuiteOracle::build_with_l2_threads(&suite, &model, &l2, 4);
        assert_bit_identical(&one, &four, "L2 workers 1 vs 4");
    }

    #[test]
    fn l2_backed_oracle_has_same_l1_stats_but_different_costs() {
        let suite = Suite::eembc_like_small();
        let model = EnergyModel::default();
        let plain = SuiteOracle::build(&suite, &model);
        let l2 = energy_model::L2Params::typical();
        let stacked = SuiteOracle::build_with_l2(&suite, &model, &l2);
        for benchmark in plain.benchmarks() {
            for config in design_space() {
                assert_eq!(
                    plain.stats(benchmark, config),
                    stacked.stats(benchmark, config),
                    "{benchmark} {config}: L1 behaviour must be identical"
                );
            }
            // With a 64 KB L2 behind it, an L1-thrashing benchmark's best
            // cost cannot be *worse* off-chip-wise; at minimum, costs
            // differ (the models price misses differently).
            let p = plain.best_config(benchmark).1.total_nj();
            let s = stacked.best_config(benchmark).1.total_nj();
            assert!(p.is_finite() && s.is_finite());
            assert_ne!(p, s, "{benchmark}: the L2 must change the economics");
        }
    }

    #[test]
    fn l2_helps_thrashing_benchmarks_relatively_more() {
        // cacheb01 (uniform random over 32 KB) misses everywhere in L1 but
        // mostly hits a 64 KB L2; a cache-resident kernel like iirflt01
        // gains nothing except the L2's leakage. Relative cost change must
        // reflect that.
        let suite = Suite::eembc_like_small();
        let model = EnergyModel::default();
        let plain = SuiteOracle::build(&suite, &model);
        let stacked =
            SuiteOracle::build_with_l2(&suite, &model, &energy_model::L2Params::typical());
        let find = |name: &str| {
            suite
                .iter()
                .find(|k| k.name() == name)
                .map(|k| k.id())
                .expect("kernel exists")
        };
        let ratio =
            |b| stacked.cost(b, BASE_CONFIG).total_nj() / plain.cost(b, BASE_CONFIG).total_nj();
        let thrasher = ratio(find("cacheb01"));
        let resident = ratio(find("iirflt01"));
        assert!(
            thrasher < resident,
            "the L2 should pay off more for cacheb01 ({thrasher:.3}) than iirflt01 ({resident:.3})"
        );
        assert!(
            thrasher < 1.0,
            "cacheb01 must get cheaper with an L2: {thrasher:.3}"
        );
    }

    #[test]
    fn higher_associativity_never_hurts_misses_at_fixed_size_and_line() {
        let oracle = oracle();
        for benchmark in oracle.benchmarks() {
            for line in cache_sim::LineSize::ALL {
                let c1 = CacheConfig::new(CacheSizeKb::K8, Associativity::Direct, line).unwrap();
                let c4 = CacheConfig::new(CacheSizeKb::K8, Associativity::Four, line).unwrap();
                let m1 = oracle.stats(benchmark, c1).misses();
                let m4 = oracle.stats(benchmark, c4).misses();
                // LRU is not strictly inclusive, but for these kernels
                // 4-way should never be dramatically worse.
                assert!(
                    m4 <= m1 + m1 / 4 + 64,
                    "{benchmark} {line:?}: 4W misses {m4} far exceed 1W {m1}"
                );
            }
        }
    }
}
