//! The proposed system: the full Figure 2 scheduling flow.

use crate::arch::Architecture;
use crate::decision::StallDecision;
use crate::fallback::FallbackChain;
use crate::oracle::SuiteOracle;
use crate::predictor::BestCorePredictor;
use crate::systems::common::{Pending, Predictive, SystemStats};
use crate::ProfilingTable;
use cache_sim::CacheConfig;
use energy_model::{EnergyModel, ExecutionCost};
use multicore_sim::{CoreId, CoreIndex, CoreSet, Decision, FaultPlan, Job, Scheduler, TierCell};
use std::ops::ControlFlow;

/// The paper's proposed scheduler (Figure 2):
///
/// 1. unprofiled applications are profiled on Core 4 (or Core 3) in the
///    base configuration, and the ANN predicts their best core;
/// 2. if the best core is idle, schedule there — directly configured when
///    the best configuration is known, else one Figure 5 tuning step;
/// 3. if the best core is busy and some idle core's best configuration is
///    **unknown**, schedule to such a core arbitrarily (the scheduler
///    "must gather information about all system cores to make more
///    accurate future scheduling decisions");
/// 4. if all idle cores' best configurations are known, evaluate the
///    Section IV.E energy-advantageous decision against every candidate:
///    run on the cheapest non-best core when that saves energy over
///    stalling, otherwise re-enqueue and wait for the best core.
///
/// ```
/// use energy_model::EnergyModel;
/// use hetero_core::{
///     Architecture, BestCorePredictor, PredictorConfig, ProposedSystem, SuiteOracle,
/// };
/// use multicore_sim::Simulator;
/// use workloads::{ArrivalPlan, Suite};
///
/// let suite = Suite::eembc_like_small();
/// let model = EnergyModel::default();
/// let oracle = SuiteOracle::build(&suite, &model);
/// let arch = Architecture::paper_quad();
/// let predictor = BestCorePredictor::train(&oracle, &PredictorConfig::fast());
/// let mut system = ProposedSystem::new(&arch, &oracle, predictor);
/// let plan = ArrivalPlan::uniform(80, 30_000_000, suite.len(), 9);
/// let metrics = Simulator::new(4).run(&plan, &mut system);
/// assert_eq!(metrics.jobs_completed, 80);
/// ```
#[derive(Debug, Clone)]
pub struct ProposedSystem<'a> {
    predictive: Predictive<'a>,
    policy: DecisionPolicy,
}

/// How the proposed system resolves a busy best core once every idle
/// core's best configuration is known. [`Evaluate`](DecisionPolicy::Evaluate)
/// is the paper's Section IV.E behaviour; the other two are ablations that
/// isolate the decision's contribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecisionPolicy {
    /// Evaluate the energy-advantageous equation (the paper's system).
    #[default]
    Evaluate,
    /// Never borrow a non-best core (decision hard-wired to stall).
    AlwaysStall,
    /// Always borrow the cheapest idle core (decision hard-wired to run).
    AlwaysRun,
}

impl<'a> ProposedSystem<'a> {
    /// Build with a trained best-core predictor, using the energy model
    /// the oracle was built with.
    pub fn new(
        arch: &'a Architecture,
        oracle: &'a SuiteOracle,
        predictor: BestCorePredictor,
    ) -> Self {
        Self::with_model(arch, oracle, EnergyModel::default(), predictor)
    }

    /// Build with an explicit energy model (must match the oracle's).
    pub fn with_model(
        arch: &'a Architecture,
        oracle: &'a SuiteOracle,
        model: EnergyModel,
        predictor: BestCorePredictor,
    ) -> Self {
        ProposedSystem {
            predictive: Predictive::new(arch, oracle, model, predictor),
            policy: DecisionPolicy::Evaluate,
        }
    }

    /// Override the Section IV.E decision with an ablation policy.
    pub fn with_decision_policy(mut self, policy: DecisionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Subscribe to an injected fault schedule, degrading through `chain`:
    /// while only the primary predictor is down, profile predictions come
    /// from the kNN stage; under a full predictor blackout (or corrupted
    /// profiling features) the system falls all the way back to the base
    /// system's behaviour — first idle core, base configuration.
    pub fn with_faults(self, plan: &'a FaultPlan, chain: FallbackChain) -> Self {
        ProposedSystem {
            predictive: self.predictive.with_faults(plan, chain),
            ..self
        }
    }

    /// Subscribe to a brownout serving tier (shared with an overload
    /// governor through `cell`): per completion the serving path honours
    /// the worse of the fault plan's degradation and the tier's, with tier
    /// [`Distilled`](multicore_sim::ServingTier::Distilled) served by
    /// `distilled` when provided. Trains the fallback chain lazily if
    /// [`with_faults`](Self::with_faults) hasn't already supplied one, so
    /// tiers 2 and 3 always have their kNN/static stages available.
    pub fn with_serving_tier(self, cell: TierCell, distilled: Option<BestCorePredictor>) -> Self {
        ProposedSystem {
            predictive: self.predictive.with_serving_tier(cell, distilled),
            ..self
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

/// Cycles until the earliest best-core occupant releases its core, for
/// the remaining-cycles estimate.
fn earliest_release(best_cores: &CoreSet, cores: &CoreIndex, now: u64) -> Option<u64> {
    best_cores
        .iter()
        .filter_map(|c| cores.view(c).busy)
        .map(|busy| busy.busy_until.saturating_sub(now))
        .min()
}

impl Scheduler for ProposedSystem<'_> {
    fn schedule(&mut self, job: &Job, cores: &CoreIndex, now: u64) -> Decision {
        // Phases 0–2: blackout degradation, profiling (Figure 2,
        // "profiling information?" == no) and an idle best core.
        let best_size = match self.predictive.place_on_best_core(job, cores, now) {
            ControlFlow::Break(decision) => return decision,
            ControlFlow::Continue(best_size) => best_size,
        };

        // The best core is busy. Candidates are all idle (non-best) cores.
        if cores.idle_count() == 0 {
            return Decision::Stall;
        }

        let shared = &self.predictive.shared;
        let arch = shared.arch;
        let entry = shared.table.get(job.benchmark).expect("profiled");
        let best_cores = arch.core_set(best_size);

        // Phase 3: any idle core with an unknown best configuration gets
        // the job (information gathering; one tuning step executes there).
        if let Some(core) = cores
            .idle_cores()
            .find(|&c| !entry.is_tuned(arch.core_size(c)))
        {
            return self.predictive.run_with_tuning(job, core);
        }

        // Phase 4: all idle cores are tuned for this application —
        // evaluate the Section IV.E decision. The comparison needs
        // E(B @ best core); when best-core tuning is still in flight we
        // cannot evaluate, so the application stalls for its best core.
        if self.policy == DecisionPolicy::AlwaysStall {
            return Decision::Stall;
        }
        let Some((_, b_on_best)) = entry.best_known_for_size(best_size) else {
            return Decision::Stall;
        };
        let Some(remaining) = earliest_release(best_cores, cores, now) else {
            return Decision::Stall; // no busy best core found (defensive)
        };

        // Occupant's average energy per cycle, from our own launch records.
        let occupant_rate = best_cores
            .iter()
            .filter_map(|c| shared.running[c.0])
            .map(|r| r.cost.total_nj() / r.cost.cycles.max(1) as f64)
            .next()
            .unwrap_or(0.0);

        // Count candidate evaluations locally and commit them to the
        // shared stats only on a `Run` outcome: a `Stall`-returning call
        // (including a declined preemption probe) must leave observable
        // state untouched per the Scheduler contract.
        let mut evaluated = 0u64;
        let mut chosen: Option<(CoreId, CacheConfig, ExecutionCost)> = None;
        for candidate in cores.idle_cores() {
            let size = arch.core_size(candidate);
            let Some((config, b_on_candidate)) = entry.best_known_for_size(size) else {
                continue;
            };
            evaluated += 1;
            let decision = StallDecision::evaluate(
                b_on_best,
                b_on_candidate,
                shared.idle_power(candidate),
                remaining,
                occupant_rate,
            );
            let borrow = match self.policy {
                DecisionPolicy::Evaluate => !decision.stall_is_advantageous(),
                DecisionPolicy::AlwaysStall => false,
                DecisionPolicy::AlwaysRun => true,
            };
            if borrow {
                let better =
                    chosen.is_none_or(|(_, _, cost)| b_on_candidate.total_nj() < cost.total_nj());
                if better {
                    chosen = Some((candidate, config, b_on_candidate));
                }
            }
        }

        match chosen {
            Some((core, config, _)) => {
                let shared = &mut self.predictive.shared;
                shared.stats.decisions_evaluated += evaluated;
                shared.stats.decisions_ran_non_best += 1;
                shared.launch(
                    job,
                    core,
                    config,
                    Pending::Execution {
                        benchmark: job.benchmark,
                        config,
                    },
                )
            }
            None => Decision::Stall,
        }
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
    use crate::systems::base::BaseSystem;
    use crate::systems::energy_centric::EnergyCentricSystem;
    use multicore_sim::{RunMetrics, Simulator};
    use workloads::{ArrivalPlan, Suite};

    struct Fixture {
        suite: Suite,
        model: EnergyModel,
        oracle: &'static SuiteOracle,
        arch: &'static Architecture,
    }

    fn fixture() -> Fixture {
        let suite = Suite::eembc_like_small();
        let model = EnergyModel::default();
        let oracle = Box::leak(Box::new(SuiteOracle::build(&suite, &model)));
        let arch = Box::leak(Box::new(Architecture::paper_quad()));
        Fixture {
            suite,
            model,
            oracle,
            arch,
        }
    }

    fn run_proposed(
        f: &Fixture,
        jobs: usize,
        horizon: u64,
        seed: u64,
    ) -> (SystemStats, usize, RunMetrics) {
        let predictor = BestCorePredictor::train(f.oracle, &PredictorConfig::fast());
        let mut system = ProposedSystem::with_model(f.arch, f.oracle, f.model, predictor);
        let plan = ArrivalPlan::uniform(jobs, horizon, f.suite.len(), seed);
        let metrics = Simulator::new(4).run(&plan, &mut system);
        assert_eq!(metrics.jobs_completed, jobs as u64);
        (system.stats(), system.table().len(), metrics)
    }

    #[test]
    fn completes_all_jobs_and_profiles_every_benchmark_once() {
        let f = fixture();
        let (stats, table_len, _) = run_proposed(&f, 300, 50_000_000, 31);
        assert_eq!(stats.profiling_runs as usize, f.suite.len());
        assert_eq!(table_len, f.suite.len());
    }

    #[test]
    fn beats_the_base_system_under_contention() {
        let f = fixture();
        let plan = ArrivalPlan::uniform(400, 40_000_000, f.suite.len(), 33);

        let mut base = BaseSystem::new(f.oracle, f.model, 4);
        let base_metrics = Simulator::new(4).run(&plan, &mut base);

        let predictor = BestCorePredictor::train(f.oracle, &PredictorConfig::fast());
        let mut proposed = ProposedSystem::with_model(f.arch, f.oracle, f.model, predictor);
        let proposed_metrics = Simulator::new(4).run(&plan, &mut proposed);

        assert!(
            proposed_metrics.energy.total() < base_metrics.energy.total(),
            "proposed {} must beat base {}",
            proposed_metrics.energy.total(),
            base_metrics.energy.total()
        );
    }

    #[test]
    fn takes_energy_advantageous_decisions_under_contention() {
        let f = fixture();
        let (stats, _, _) = run_proposed(&f, 400, 10_000_000, 35);
        assert!(
            stats.decisions_evaluated > 0,
            "contention must trigger IV.E evaluations"
        );
    }

    #[test]
    fn profiling_energy_is_a_small_fraction_of_total() {
        let f = fixture();
        let (stats, _, metrics) = run_proposed(&f, 500, 80_000_000, 37);
        let fraction = stats.profiling_energy_nj / metrics.energy.total();
        assert!(
            fraction < 0.10,
            "profiling fraction {fraction} should be small (paper: < 0.5% at 5000 jobs)"
        );
    }

    #[test]
    fn tuning_explores_a_bounded_slice_of_the_design_space() {
        let f = fixture();
        let predictor = BestCorePredictor::train(f.oracle, &PredictorConfig::fast());
        let mut system = ProposedSystem::with_model(f.arch, f.oracle, f.model, predictor);
        let plan = ArrivalPlan::uniform(600, 60_000_000, f.suite.len(), 39);
        let _ = Simulator::new(4).run(&plan, &mut system);
        for (benchmark, entry) in system.table().iter() {
            // 18 configurations exist; the paper's heuristic explores at
            // most a small fraction (plus the base-config profile record).
            assert!(
                entry.explored_count() <= 13,
                "{benchmark} explored {} configurations",
                entry.explored_count()
            );
        }
    }

    /// The two systems that share the predicted-best-core path, built the
    /// same way so that path's tests run over both.
    trait PredictedBestCore: Scheduler + Sized {
        const NAME: &'static str;
        fn build(f: &Fixture, predictor: BestCorePredictor) -> Self;
        fn faults(self, plan: &'static FaultPlan, chain: FallbackChain) -> Self;
        fn serving_tier(self, cell: TierCell, distilled: Option<BestCorePredictor>) -> Self;
        fn counters(&self) -> SystemStats;
        fn profiles(&self) -> &ProfilingTable;
    }

    impl PredictedBestCore for ProposedSystem<'static> {
        const NAME: &'static str = "proposed";
        fn build(f: &Fixture, predictor: BestCorePredictor) -> Self {
            ProposedSystem::with_model(f.arch, f.oracle, f.model, predictor)
        }
        fn faults(self, plan: &'static FaultPlan, chain: FallbackChain) -> Self {
            self.with_faults(plan, chain)
        }
        fn serving_tier(self, cell: TierCell, distilled: Option<BestCorePredictor>) -> Self {
            self.with_serving_tier(cell, distilled)
        }
        fn counters(&self) -> SystemStats {
            self.stats()
        }
        fn profiles(&self) -> &ProfilingTable {
            self.table()
        }
    }

    impl PredictedBestCore for EnergyCentricSystem<'static> {
        const NAME: &'static str = "energy-centric";
        fn build(f: &Fixture, predictor: BestCorePredictor) -> Self {
            EnergyCentricSystem::new(f.arch, f.oracle, f.model, predictor)
        }
        fn faults(self, plan: &'static FaultPlan, chain: FallbackChain) -> Self {
            self.with_faults(plan, chain)
        }
        fn serving_tier(self, cell: TierCell, distilled: Option<BestCorePredictor>) -> Self {
            self.with_serving_tier(cell, distilled)
        }
        fn counters(&self) -> SystemStats {
            self.stats()
        }
        fn profiles(&self) -> &ProfilingTable {
            self.table()
        }
    }

    #[test]
    fn serving_tier_full_is_bit_identical_and_lower_tiers_change_serving() {
        let f = fixture();
        let predictor = BestCorePredictor::train(f.oracle, &PredictorConfig::fast());
        let distill = tinyann::DistillConfig {
            replicas: 2,
            hidden: vec![8],
            train: tinyann::TrainConfig {
                epochs: 60,
                ..tinyann::TrainConfig::default()
            },
            ..tinyann::DistillConfig::default()
        };
        let student = predictor.distill(f.oracle, &distill);
        serving_tiers::<ProposedSystem>(&f, &predictor, &student);
        serving_tiers::<EnergyCentricSystem>(&f, &predictor, &student);
    }

    fn serving_tiers<S: PredictedBestCore>(
        f: &Fixture,
        predictor: &BestCorePredictor,
        student: &Option<BestCorePredictor>,
    ) {
        use multicore_sim::{tier_cell, ServingTier};

        let name = S::NAME;
        let plan = ArrivalPlan::uniform(300, 30_000_000, f.suite.len(), 47);

        // Plain run: no tier cell at all.
        let mut plain = S::build(f, predictor.clone());
        let plain_metrics = Simulator::new(4).run(&plan, &mut plain);

        // Tier cell held at Full for the whole run: bit-identical.
        let cell = tier_cell();
        let mut full = S::build(f, predictor.clone()).serving_tier(cell.clone(), student.clone());
        let full_metrics = Simulator::new(4).run(&plan, &mut full);
        assert_eq!(plain_metrics, full_metrics, "{name}");
        assert_eq!(full.counters().fallback_predictions, 0, "{name}");
        assert_eq!(full.counters().distilled_predictions, 0, "{name}");

        // Cell set to tier 1: completions are served by the student.
        let cell = tier_cell();
        cell.set(ServingTier::Distilled);
        let mut browned = S::build(f, predictor.clone()).serving_tier(cell, student.clone());
        let _ = Simulator::new(4).run(&plan, &mut browned);
        assert!(browned.counters().distilled_predictions > 0, "{name}");
        assert_eq!(browned.counters().fallback_predictions, 0, "{name}");

        // Cell set to tier 2: the kNN stage serves, counted as fallback.
        let cell = tier_cell();
        cell.set(ServingTier::Knn);
        let mut knn = S::build(f, predictor.clone()).serving_tier(cell, None);
        let _ = Simulator::new(4).run(&plan, &mut knn);
        assert!(knn.counters().fallback_predictions > 0, "{name}");
        assert_eq!(knn.counters().distilled_predictions, 0, "{name}");
    }

    #[test]
    fn stepping_the_tier_cell_mid_run_switches_the_serving_path() {
        use multicore_sim::{tier_cell, ServingTier, TierCell};

        // A thin delegating scheduler that drops the tier after a fixed
        // number of completions — standing in for the engine's brownout
        // controller, which steps the same cell from outside the policy.
        struct StepAfter<'a> {
            inner: ProposedSystem<'a>,
            cell: TierCell,
            after: u64,
            completions: u64,
        }
        impl Scheduler for StepAfter<'_> {
            fn schedule(&mut self, job: &Job, cores: &CoreIndex, now: u64) -> Decision {
                self.inner.schedule(job, cores, now)
            }
            fn idle_power_nj_per_cycle(&self, core: CoreId) -> f64 {
                self.inner.idle_power_nj_per_cycle(core)
            }
            fn on_complete(&mut self, job: &Job, core: CoreId, now: u64) {
                self.completions += 1;
                if self.completions == self.after {
                    self.cell.set(ServingTier::Static);
                }
                self.inner.on_complete(job, core, now);
            }
            fn on_preempt(&mut self, job: &Job, core: CoreId, now: u64) {
                self.inner.on_preempt(job, core, now);
            }
            fn state_fingerprint(&self) -> u64 {
                self.inner.state_fingerprint()
            }
        }

        let f = fixture();
        let plan = ArrivalPlan::uniform(300, 30_000_000, f.suite.len(), 49);
        let predictor = BestCorePredictor::train(f.oracle, &PredictorConfig::fast());
        let cell = tier_cell();
        let inner = ProposedSystem::with_model(f.arch, f.oracle, f.model, predictor)
            .with_serving_tier(cell.clone(), None);
        // Predictions are made at profiling completions (one per
        // benchmark), so the step must land while profiling is still in
        // progress: the first completion of a run is always a profiling
        // run, and with `after: 5` most of the suite is still unprofiled.
        let mut stepped = StepAfter {
            inner,
            cell,
            after: 5,
            completions: 0,
        };
        let metrics = Simulator::new(4).run(&plan, &mut stepped);
        assert_eq!(metrics.jobs_completed, 300);
        let stats = stepped.inner.stats();
        // Profiles completed before the step were served by the primary;
        // ones after it by the static stage — so the fallback count sits
        // strictly between 0 and the number of profiling runs.
        assert!(stats.fallback_predictions > 0);
        assert!(
            stats.fallback_predictions < stats.profiling_runs,
            "{} of {} profiling predictions degraded",
            stats.fallback_predictions,
            stats.profiling_runs
        );
    }

    #[test]
    fn determinism_across_identical_runs() {
        let f = fixture();
        let (stats_a, _, metrics_a) = run_proposed(&f, 200, 20_000_000, 41);
        let (stats_b, _, metrics_b) = run_proposed(&f, 200, 20_000_000, 41);
        assert_eq!(stats_a, stats_b);
        assert_eq!(metrics_a, metrics_b);
    }

    #[test]
    fn stall_paths_leave_state_untouched() {
        // Regression for the decisions_evaluated leak: wrap the system in
        // the purity checker and drive it through a contended run — every
        // Stall-returning call (ordinary pass or preemption probe) must
        // leave the state fingerprint unchanged.
        use multicore_sim::{QueueDiscipline, StallPurityChecked};
        let f = fixture();
        let predictor = BestCorePredictor::train(f.oracle, &PredictorConfig::fast());
        let system = ProposedSystem::with_model(f.arch, f.oracle, f.model, predictor);
        let mut checked = StallPurityChecked::new(system);
        let plan = ArrivalPlan::uniform_with_priorities(400, 10_000_000, f.suite.len(), 3, 35);
        let metrics = Simulator::new(4)
            .with_discipline(QueueDiscipline::PreemptivePriority)
            .run(&plan, &mut checked);
        assert_eq!(metrics.jobs_completed, 400);
        assert!(checked.stall_checks() > 0, "contention must produce stalls");
        checked.assert_pure();
        assert!(
            checked.into_inner().stats().decisions_evaluated > 0,
            "Run-committed evaluations still recorded"
        );
    }

    #[test]
    fn predictor_blackout_degrades_to_base_system_placements() {
        let f = fixture();
        let predictor = BestCorePredictor::train(f.oracle, &PredictorConfig::fast());
        blackout::<ProposedSystem>(&f, &predictor);
        blackout::<EnergyCentricSystem>(&f, &predictor);
    }

    fn blackout<S: PredictedBestCore>(f: &Fixture, predictor: &BestCorePredictor) {
        // Under a 100% predictor outage no chain stage can predict: the
        // system must fall back to the base system's behaviour —
        // bit-identical placements (same cores, cycles, energies).
        use multicore_sim::{FaultConfig, RecordingSink, TraceEvent};
        let name = S::NAME;
        let plan = ArrivalPlan::uniform(120, 12_000_000, f.suite.len(), 51);
        let fault_plan: &'static FaultPlan = Box::leak(Box::new(FaultPlan::build(
            &FaultConfig::predictor_blackout(7),
            4,
        )));

        let chain = FallbackChain::train(f.oracle);
        let mut system = S::build(f, predictor.clone()).faults(fault_plan, chain);
        let mut system_sink = RecordingSink::new();
        let system_run =
            Simulator::new(4).run_with_faults(&plan, &mut system, fault_plan, &mut system_sink);

        let mut base = BaseSystem::new(f.oracle, f.model, 4);
        let mut base_sink = RecordingSink::new();
        let base_run =
            Simulator::new(4).run_with_faults(&plan, &mut base, fault_plan, &mut base_sink);

        let placements = |events: &[TraceEvent]| -> Vec<TraceEvent> {
            events
                .iter()
                .filter(|e| matches!(e, TraceEvent::Placement { .. }))
                .copied()
                .collect()
        };
        assert_eq!(
            placements(system_sink.events()),
            placements(base_sink.events()),
            "{name} blackout placements must equal the base system's"
        );
        assert_eq!(system_run.metrics.jobs_completed, 120, "{name}");
        assert_eq!(base_run.metrics.jobs_completed, 120);
        let stats = system.counters();
        assert_eq!(stats.degraded_placements, 120, "{name}");
        assert_eq!(
            stats.profiling_runs, 0,
            "{name}: no profiling under blackout"
        );
    }

    #[test]
    fn corrupted_features_fall_back_to_static_predictions() {
        let f = fixture();
        let predictor = BestCorePredictor::train(f.oracle, &PredictorConfig::fast());
        corrupted_features::<ProposedSystem>(&f, &predictor);
        corrupted_features::<EnergyCentricSystem>(&f, &predictor);
    }

    fn corrupted_features<S: PredictedBestCore>(f: &Fixture, predictor: &BestCorePredictor) {
        // 100% feature corruption: every profile completion must skip both
        // learned predictors (the primary memoizes per benchmark, so
        // consulting it would silently return a clean cached answer) and
        // store the static 8 KB prediction.
        use multicore_sim::{FaultConfig, NullSink};
        let name = S::NAME;
        let plan = ArrivalPlan::uniform(150, 30_000_000, f.suite.len(), 53);
        let config = FaultConfig {
            feature_corruption_rate: 1.0,
            ..FaultConfig::none()
        };
        let fault_plan: &'static FaultPlan = Box::leak(Box::new(FaultPlan::build(&config, 4)));

        let chain = FallbackChain::train(f.oracle);
        let mut system = S::build(f, predictor.clone()).faults(fault_plan, chain);
        let run = Simulator::new(4).run_with_faults(&plan, &mut system, fault_plan, &mut NullSink);
        assert_eq!(run.metrics.jobs_completed, 150, "{name}");
        let stats = system.counters();
        assert_eq!(
            stats.fallback_predictions, stats.profiling_runs,
            "{name}: every profile prediction must be served degraded"
        );
        for (benchmark, entry) in system.profiles().iter() {
            assert_eq!(
                entry.predicted_best_size,
                cache_sim::CacheSizeKb::K8,
                "{name}: {benchmark} must carry the static fallback prediction"
            );
        }
    }

    #[test]
    fn runs_on_architectures_missing_a_predicted_size() {
        // Regression: on a 2-core (2 KB / 8 KB) system, a benchmark whose
        // predicted best size is 4 KB must be clamped to an offered size
        // rather than stalling forever.
        let suite = Suite::eembc_like_small();
        let model = EnergyModel::default();
        let oracle = Box::leak(Box::new(SuiteOracle::build(&suite, &model)));
        let arch = Box::leak(Box::new(Architecture::new(
            vec![cache_sim::CacheSizeKb::K2, cache_sim::CacheSizeKb::K8],
            multicore_sim::CoreId(1),
            None,
        )));
        let predictor = BestCorePredictor::train(oracle, &PredictorConfig::fast());
        let mut system = ProposedSystem::with_model(arch, oracle, model, predictor);
        let plan = ArrivalPlan::uniform(150, 30_000_000, suite.len(), 43);
        let metrics = Simulator::new(2).run(&plan, &mut system);
        assert_eq!(metrics.jobs_completed, 150);
    }
}
