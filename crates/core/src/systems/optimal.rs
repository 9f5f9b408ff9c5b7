//! The "optimal" comparator system.

use crate::arch::Architecture;
use crate::oracle::SuiteOracle;
use crate::systems::common::{Pending, Shared, SystemStats};
use crate::ProfilingTable;
use energy_model::EnergyModel;
use multicore_sim::{CoreId, CoreIndex, Decision, Job, Scheduler};

/// The paper's *optimal* system (Sec. V): subsetted cores, profiling on
/// the profiling core, **no ANN** — instead it "executes each benchmark
/// using all possible configurations to determine what the best
/// configuration is and only schedules to the best core when that core is
/// idle"; when the best core is busy it runs on any idle core (in that
/// core's best configuration), eliminating stall energy entirely.
///
/// As in the paper, "optimal" refers to *configurations being optimal on
/// whichever core the benchmark lands on*, not to globally optimal
/// scheduling. The exhaustive search is **physically charged**: until a
/// benchmark has executed every one of the 18 configurations, each of its
/// instances runs one still-unexplored configuration on an idle core
/// (preferring cores with unexplored subsets). This exploration energy and
/// time is what the predictive systems avoid — the reason the paper's
/// Figure 6 shows the ANN-based systems cutting *dynamic* energy far
/// deeper than the optimal system.
///
/// ```
/// use energy_model::EnergyModel;
/// use hetero_core::{Architecture, OptimalSystem, SuiteOracle};
/// use multicore_sim::Simulator;
/// use workloads::{ArrivalPlan, Suite};
///
/// let suite = Suite::eembc_like_small();
/// let model = EnergyModel::default();
/// let oracle = SuiteOracle::build(&suite, &model);
/// let arch = Architecture::paper_quad();
/// let mut system = OptimalSystem::new(&arch, &oracle, model);
/// let plan = ArrivalPlan::uniform(60, 20_000_000, suite.len(), 5);
/// let metrics = Simulator::new(4).run(&plan, &mut system);
/// assert_eq!(metrics.jobs_completed, 60);
/// ```
#[derive(Debug, Clone)]
pub struct OptimalSystem<'a> {
    shared: Shared<'a>,
}

impl<'a> OptimalSystem<'a> {
    /// Build over the Figure 1 architecture and the exhaustive-search
    /// results.
    pub fn new(arch: &'a Architecture, oracle: &'a SuiteOracle, model: EnergyModel) -> Self {
        OptimalSystem {
            shared: Shared::new(arch, oracle, model),
        }
    }

    /// Instrumentation counters.
    pub fn stats(&self) -> SystemStats {
        self.shared.stats
    }

    /// The profiling table accumulated so far.
    pub fn table(&self) -> &ProfilingTable {
        &self.shared.table
    }
}

impl OptimalSystem<'_> {
    /// The first configuration of `size` this benchmark has not yet
    /// executed, per the profiling table.
    fn unexplored_on(
        &self,
        benchmark: workloads::BenchmarkId,
        core: CoreId,
    ) -> Option<cache_sim::CacheConfig> {
        let entry = self.shared.table.get(benchmark)?;
        let size = self.shared.arch.core_size(core);
        cache_sim::design_space().find(|&c| c.size() == size && entry.known_cost(c).is_none())
    }

    /// Whether the benchmark has executed all 18 configurations.
    fn fully_explored(&self, benchmark: workloads::BenchmarkId) -> bool {
        self.shared
            .table
            .get(benchmark)
            .is_some_and(|e| e.explored_count() >= cache_sim::DESIGN_SPACE_LEN)
    }

    /// Best configuration and size learned from the completed exhaustive
    /// search (read from the profiling table, not the oracle).
    fn learned_best_size(&self, benchmark: workloads::BenchmarkId) -> cache_sim::CacheSizeKb {
        let entry = self.shared.table.get(benchmark).expect("fully explored");
        entry
            .explored()
            .min_by(|a, b| a.1.total_nj().partial_cmp(&b.1.total_nj()).expect("finite"))
            .expect("explored set non-empty")
            .0
            .size()
    }

    fn learned_best_on(
        &self,
        benchmark: workloads::BenchmarkId,
        core: CoreId,
    ) -> cache_sim::CacheConfig {
        let size = self.shared.arch.core_size(core);
        let entry = self.shared.table.get(benchmark).expect("profiled");
        entry
            .explored()
            .filter(|(c, _)| c.size() == size)
            .min_by(|a, b| a.1.total_nj().partial_cmp(&b.1.total_nj()).expect("finite"))
            .expect("subset explored")
            .0
    }
}

impl Scheduler for OptimalSystem<'_> {
    fn schedule(&mut self, job: &Job, cores: &CoreIndex, _now: u64) -> Decision {
        // First encounter: profile on the profiling core (charged).
        if !self.shared.table.contains(job.benchmark) {
            return self.shared.try_profile(job, cores);
        }

        // Exploration phase: physically execute every configuration once.
        // Prefer an idle core that still has unexplored configurations.
        if !self.fully_explored(job.benchmark) {
            let Some(first_idle) = Shared::first_idle(cores) else {
                return Decision::Stall;
            };
            for core in cores.idle_cores() {
                if let Some(config) = self.unexplored_on(job.benchmark, core) {
                    self.shared.stats.tuning_runs += 1;
                    return self.shared.launch(
                        job,
                        core,
                        config,
                        Pending::Execution {
                            benchmark: job.benchmark,
                            config,
                        },
                    );
                }
            }
            // Every idle core's subset is done but a busy core's is not:
            // run the best known configuration on the first idle core.
            let config = self.learned_best_on(job.benchmark, first_idle);
            return self.shared.launch(
                job,
                first_idle,
                config,
                Pending::Execution {
                    benchmark: job.benchmark,
                    config,
                },
            );
        }

        // Steady state: best core first, otherwise any idle core in that
        // core's best configuration. Never stall.
        let best_size = self.learned_best_size(job.benchmark);
        let best_core = cores.first_idle_in(self.shared.arch.core_set(best_size));
        let target = match best_core.or_else(|| Shared::first_idle(cores)) {
            Some(core) => core,
            None => return Decision::Stall,
        };
        let config = self.learned_best_on(job.benchmark, target);
        self.shared.launch(
            job,
            target,
            config,
            Pending::Execution {
                benchmark: job.benchmark,
                config,
            },
        )
    }

    fn idle_power_nj_per_cycle(&self, core: CoreId) -> f64 {
        self.shared.idle_power(core)
    }

    fn on_complete(&mut self, job: &Job, core: CoreId, _now: u64) {
        let benchmark = job.benchmark;
        self.shared
            .complete(job, core, |shared| shared.oracle.best_size(benchmark));
    }

    fn on_preempt(&mut self, job: &Job, core: CoreId, _now: u64) {
        self.shared.abort(job, core);
    }

    fn state_fingerprint(&self) -> u64 {
        self.shared.fingerprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::BASE_CONFIG;
    use multicore_sim::Simulator;
    use workloads::{ArrivalPlan, Suite};

    fn setup() -> (Suite, EnergyModel) {
        (Suite::eembc_like_small(), EnergyModel::default())
    }

    #[test]
    fn optimal_system_is_inherently_fault_resilient() {
        // Core selection goes through the idle mask, whose bits already
        // exclude offline cores, and aborted executions drop their
        // pending table updates: the system needs no fault-specific code.
        use multicore_sim::{FaultConfig, FaultPlan, NullSink};
        let (suite, model) = setup();
        let oracle = SuiteOracle::build(&suite, &model);
        let arch = Architecture::paper_quad();
        let mut system = OptimalSystem::new(&arch, &oracle, model);
        let plan = ArrivalPlan::uniform(80, 20_000_000, suite.len(), 17);
        let fault_plan = FaultPlan::build(&FaultConfig::chaos(0.3, 6, 25_000_000), 4);
        let run = Simulator::new(4).run_with_faults(&plan, &mut system, &fault_plan, &mut NullSink);
        assert_eq!(
            run.metrics.jobs_completed + run.faults.jobs_failed,
            80,
            "every job completes or is explicitly abandoned"
        );
    }

    #[test]
    fn beats_the_base_system_on_total_energy() {
        let (suite, model) = setup();
        let oracle = SuiteOracle::build(&suite, &model);
        let plan = ArrivalPlan::uniform(300, 60_000_000, suite.len(), 11);

        let mut base = crate::BaseSystem::new(&oracle, model, 4);
        let base_metrics = Simulator::new(4).run(&plan, &mut base);

        let arch = Architecture::paper_quad();
        let mut optimal = OptimalSystem::new(&arch, &oracle, model);
        let optimal_metrics = Simulator::new(4).run(&plan, &mut optimal);

        assert!(
            optimal_metrics.energy.total() < base_metrics.energy.total(),
            "optimal {} should beat base {}",
            optimal_metrics.energy.total(),
            base_metrics.energy.total()
        );
    }

    #[test]
    fn profiles_each_benchmark_exactly_once() {
        let (suite, model) = setup();
        let oracle = SuiteOracle::build(&suite, &model);
        let arch = Architecture::paper_quad();
        let mut system = OptimalSystem::new(&arch, &oracle, model);
        let plan = ArrivalPlan::uniform(400, 100_000_000, suite.len(), 13);
        let _ = Simulator::new(4).run(&plan, &mut system);
        assert_eq!(system.stats().profiling_runs as usize, suite.len());
        assert_eq!(system.table().len(), suite.len());
    }

    #[test]
    fn profiling_runs_use_the_base_configuration() {
        let (suite, model) = setup();
        let oracle = SuiteOracle::build(&suite, &model);
        let arch = Architecture::paper_quad();
        let mut system = OptimalSystem::new(&arch, &oracle, model);
        let plan = ArrivalPlan::uniform(100, 50_000_000, suite.len(), 17);
        let _ = Simulator::new(4).run(&plan, &mut system);
        for (benchmark, entry) in system.table().iter() {
            assert!(
                entry.known_cost(BASE_CONFIG).is_some(),
                "{benchmark} must have a base-configuration record"
            );
        }
    }
}
