//! The energy-centric (always-stall) comparator system.

use crate::arch::Architecture;
use crate::fallback::FallbackChain;
use crate::oracle::SuiteOracle;
use crate::predictor::BestCorePredictor;
use crate::systems::common::{Predictive, SystemStats};
use crate::ProfilingTable;
use energy_model::EnergyModel;
use multicore_sim::{CoreId, CoreIndex, CoreSet, Decision, FaultPlan, Job, Scheduler, TierCell};
use std::ops::ControlFlow;

/// The paper's *energy-centric* system (Sec. V): profiles on the profiling
/// core, predicts the best core with the ANN, and "only scheduled
/// benchmarks to the benchmark's best core even if idle cores were
/// available" — i.e. it **always stalls** when the best core is busy,
/// leaving non-best cores free for future benchmarks.
///
/// On the best core, the best line/associativity is discovered with the
/// same Figure 5 tuning heuristic the proposed system uses (once known,
/// the core is configured directly).
///
/// ```
/// use energy_model::EnergyModel;
/// use hetero_core::{
///     Architecture, BestCorePredictor, EnergyCentricSystem, PredictorConfig, SuiteOracle,
/// };
/// use multicore_sim::Simulator;
/// use workloads::{ArrivalPlan, Suite};
///
/// let suite = Suite::eembc_like_small();
/// let model = EnergyModel::default();
/// let oracle = SuiteOracle::build(&suite, &model);
/// let arch = Architecture::paper_quad();
/// let predictor = BestCorePredictor::train(&oracle, &PredictorConfig::fast());
/// let mut system = EnergyCentricSystem::new(&arch, &oracle, model, predictor);
/// let plan = ArrivalPlan::uniform(60, 30_000_000, suite.len(), 2);
/// let metrics = Simulator::new(4).run(&plan, &mut system);
/// assert_eq!(metrics.jobs_completed, 60);
/// ```
#[derive(Debug, Clone)]
pub struct EnergyCentricSystem<'a> {
    predictive: Predictive<'a>,
}

impl<'a> EnergyCentricSystem<'a> {
    /// Build with a trained best-core predictor.
    pub fn new(
        arch: &'a Architecture,
        oracle: &'a SuiteOracle,
        model: EnergyModel,
        predictor: BestCorePredictor,
    ) -> Self {
        EnergyCentricSystem {
            predictive: Predictive::new(arch, oracle, model, predictor),
        }
    }

    /// Subscribe to an injected fault schedule, degrading through `chain`
    /// exactly like the proposed system: kNN predictions while only the
    /// primary predictor is down, base-system behaviour under a full
    /// blackout. The always-stall policy applies only while a best-core
    /// prediction exists to stall *for*.
    pub fn with_faults(self, plan: &'a FaultPlan, chain: FallbackChain) -> Self {
        EnergyCentricSystem {
            predictive: self.predictive.with_faults(plan, chain),
        }
    }

    /// Subscribe to a brownout serving tier — see
    /// [`ProposedSystem::with_serving_tier`](crate::ProposedSystem::with_serving_tier);
    /// the semantics are identical.
    pub fn with_serving_tier(self, cell: TierCell, distilled: Option<BestCorePredictor>) -> Self {
        EnergyCentricSystem {
            predictive: self.predictive.with_serving_tier(cell, distilled),
        }
    }

    /// Instrumentation counters.
    pub fn stats(&self) -> SystemStats {
        self.predictive.shared.stats
    }

    /// The accumulated profiling table.
    pub fn table(&self) -> &ProfilingTable {
        &self.predictive.shared.table
    }
}

impl Scheduler for EnergyCentricSystem<'_> {
    fn schedule(&mut self, job: &Job, cores: &CoreIndex, now: u64) -> Decision {
        match self.predictive.place_on_best_core(job, cores, now) {
            ControlFlow::Break(decision) => decision,
            // Only the predicted best core(s) are acceptable: stall.
            ControlFlow::Continue(_) => Decision::Stall,
        }
    }

    /// A profiled benchmark stalls exactly while its predicted best cores
    /// are all busy, and its prediction is fixed once profiled, so those
    /// cores are the promise. Unprofiled benchmarks wait for a profiling
    /// slot instead, and under a fault plan a predictor blackout runs on
    /// any idle core: neither promises anything.
    fn waits_for(&self, job: &Job) -> Option<&CoreSet> {
        if self.predictive.faults.is_some() {
            return None;
        }
        let shared = &self.predictive.shared;
        let entry = shared.table.get(job.benchmark)?;
        let arch = shared.arch;
        Some(arch.core_set(arch.nearest_available_size(entry.predicted_best_size)))
    }

    fn idle_power_nj_per_cycle(&self, core: CoreId) -> f64 {
        self.predictive.shared.idle_power(core)
    }

    fn on_complete(&mut self, job: &Job, core: CoreId, now: u64) {
        self.predictive.complete(job, core, now);
    }

    fn on_preempt(&mut self, job: &Job, core: CoreId, _now: u64) {
        self.predictive.shared.abort(job, core);
    }

    fn state_fingerprint(&self) -> u64 {
        self.predictive.shared.fingerprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::PredictorConfig;
    use multicore_sim::Simulator;
    use workloads::{ArrivalPlan, Suite};

    fn run_system(
        jobs: usize,
        horizon: u64,
        seed: u64,
    ) -> (EnergyCentricSystemOwned, multicore_sim::RunMetrics) {
        let suite = Suite::eembc_like_small();
        let model = EnergyModel::default();
        let oracle = Box::leak(Box::new(SuiteOracle::build(&suite, &model)));
        let arch = Box::leak(Box::new(Architecture::paper_quad()));
        let predictor = BestCorePredictor::train(oracle, &PredictorConfig::fast());
        let mut system = EnergyCentricSystem::new(arch, oracle, model, predictor);
        let plan = ArrivalPlan::uniform(jobs, horizon, suite.len(), seed);
        let metrics = Simulator::new(4).run(&plan, &mut system);
        (system, metrics)
    }

    type EnergyCentricSystemOwned = EnergyCentricSystem<'static>;

    #[test]
    fn all_jobs_complete_despite_always_stalling() {
        let (_, metrics) = run_system(150, 40_000_000, 21);
        assert_eq!(metrics.jobs_completed, 150);
    }

    #[test]
    fn executions_only_land_on_predicted_best_cores() {
        // With the paper architecture, a benchmark predicted best at 2 KB
        // must only ever run on core 1 (besides its one profiling run on
        // cores 3/4). We verify via the profiling table: every recorded
        // non-base configuration has the predicted size.
        let (system, _) = run_system(200, 50_000_000, 22);
        for (benchmark, entry) in system.table().iter() {
            for (config, _) in entry.explored() {
                if config == cache_sim::BASE_CONFIG {
                    continue; // the profiling run
                }
                assert_eq!(
                    config.size(),
                    entry.predicted_best_size,
                    "{benchmark} ran a non-best-size configuration {config}"
                );
            }
        }
    }

    #[test]
    fn stalls_occur_under_contention() {
        // Tight horizon: many jobs competing for the same best cores.
        let (_, metrics) = run_system(150, 1_000_000, 23);
        assert!(
            metrics.stalls > 0,
            "always-stall policy must stall under load"
        );
    }
}
