//! State shared by the profiled systems (optimal, energy-centric,
//! proposed), and the predicted-best-core path the two predictive
//! systems (energy-centric, proposed) hold in common.

use crate::arch::Architecture;
use crate::fallback::{FallbackChain, PredictionSource};
use crate::oracle::SuiteOracle;
use crate::predictor::BestCorePredictor;
use crate::profiling::{ProfileEntry, ProfilingTable};
use crate::tuning::TuningStatus;
use cache_sim::{CacheConfig, CacheSizeKb, BASE_CONFIG};
use energy_model::{EnergyModel, ExecutionCost};
use multicore_sim::{
    CoreId, CoreIndex, Decision, FaultPlan, Fingerprint, Job, JobExecution, PredictorHealth,
    ServingTier, TierCell,
};
use std::ops::ControlFlow;
use workloads::BenchmarkId;

/// Instrumentation counters exposed by every system, backing the paper's
/// Section VI overhead claims (profiling < 0.5 % of total energy; tuning
/// explores a small fraction of the design space).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SystemStats {
    /// Profiling executions performed.
    pub profiling_runs: u64,
    /// Energy consumed by profiling executions, in nanojoules.
    pub profiling_energy_nj: f64,
    /// Executions whose configuration was chosen by the tuning explorer.
    pub tuning_runs: u64,
    /// Section IV.E candidate evaluations, committed only when the call
    /// results in a `Run` decision (stall-returning calls must leave all
    /// observable state untouched — the Scheduler contract the preemption
    /// probe relies on).
    pub decisions_evaluated: u64,
    /// Decisions that sent the job to a non-best core.
    pub decisions_ran_non_best: u64,
    /// Placements made in predictor-blackout degraded mode: first idle
    /// core in the base configuration, i.e. the base system's behaviour.
    pub degraded_placements: u64,
    /// Profile predictions served by a fallback stage (kNN or static)
    /// instead of the primary predictor.
    pub fallback_predictions: u64,
    /// Profile predictions served by the distilled student (brownout
    /// tier 1) instead of the full ensemble.
    pub distilled_predictions: u64,
}

/// What a scheduled execution means, applied to the profiling table when
/// the job completes (the paper records results as executions finish).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pending {
    /// A profiling execution in the base configuration.
    Profile {
        /// The benchmark being profiled.
        benchmark: BenchmarkId,
    },
    /// A normal execution in some configuration.
    Execution {
        /// The executing benchmark.
        benchmark: BenchmarkId,
        /// The configuration it runs in.
        config: CacheConfig,
    },
}

/// A record of what currently occupies a core: its cost feeds the
/// remaining-energy estimate of the Section IV.E decision, its pending
/// update the profiling table once it completes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Running {
    /// Sequence number of the occupying job.
    pub seq: u64,
    /// Total cost of the occupying execution.
    pub cost: ExecutionCost,
    /// What its completion teaches the profiling table.
    pub pending: Pending,
}

/// Mutable state common to the profiled systems.
#[derive(Debug, Clone)]
pub struct Shared<'a> {
    pub arch: &'a Architecture,
    pub oracle: &'a SuiteOracle,
    pub model: EnergyModel,
    /// Current cache configuration loaded on each core (idle power and
    /// direct-configuration bookkeeping).
    pub core_config: Vec<CacheConfig>,
    pub table: ProfilingTable,
    pub stats: SystemStats,
    /// Occupancy records keyed by core index.
    pub running: Vec<Option<Running>>,
    /// The sequence number of each benchmark's in-flight profiling
    /// execution, keyed by benchmark id: further instances must wait (no
    /// information exists yet).
    pub profiling_in_flight: Vec<Option<u64>>,
}

impl<'a> Shared<'a> {
    /// Fresh state over an architecture/oracle pair.
    pub fn new(arch: &'a Architecture, oracle: &'a SuiteOracle, model: EnergyModel) -> Self {
        let core_config = arch.cores().map(|c| arch.default_config(c)).collect();
        Shared {
            arch,
            oracle,
            model,
            core_config,
            table: ProfilingTable::new(),
            stats: SystemStats::default(),
            running: vec![None; arch.num_cores()],
            profiling_in_flight: vec![None; oracle.len()],
        }
    }

    /// Leakage power of `core` in its currently-loaded configuration.
    pub fn idle_power(&self, core: CoreId) -> f64 {
        self.model.static_nj_per_cycle(self.core_config[core.0])
    }

    /// Launch `job` on `core` in `config`, registering all bookkeeping.
    /// The execution's true cost comes from the oracle — this is the
    /// physical act of running the job.
    pub fn launch(
        &mut self,
        job: &Job,
        core: CoreId,
        config: CacheConfig,
        pending: Pending,
    ) -> Decision {
        let cost = self.oracle.cost(job.benchmark, config);
        self.core_config[core.0] = config;
        self.running[core.0] = Some(Running {
            seq: job.seq,
            cost,
            pending,
        });
        if let Pending::Profile { benchmark } = pending {
            self.profiling_in_flight[benchmark.0] = Some(job.seq);
            self.stats.profiling_runs += 1;
            self.stats.profiling_energy_nj += cost.total_nj();
        }
        Decision::run(
            core,
            JobExecution {
                cycles: cost.cycles,
                energy: cost.energy,
            },
        )
    }

    /// Try to start a profiling execution for `job` on the primary (then
    /// secondary) profiling core; stall when both are busy or when this
    /// benchmark's profile is already being gathered.
    pub fn try_profile(&mut self, job: &Job, cores: &CoreIndex) -> Decision {
        if self.profiling_in_flight[job.benchmark.0].is_some() {
            return Decision::Stall;
        }
        let primary = self.arch.primary_profiling_core();
        let Some(core) = std::iter::once(primary)
            .chain(self.arch.secondary_profiling_core())
            .find(|&core| cores.is_idle(core))
        else {
            return Decision::Stall;
        };
        self.launch(
            job,
            core,
            BASE_CONFIG,
            Pending::Profile {
                benchmark: job.benchmark,
            },
        )
    }

    /// Apply the profiling-table effects of a completed job. The caller
    /// supplies the best-size prediction to store for fresh profiles
    /// (ANN output, or ground truth for the optimal comparator).
    pub fn complete(
        &mut self,
        job: &Job,
        core: CoreId,
        predict: impl FnOnce(&Self) -> CacheSizeKb,
    ) {
        let running = self.running[core.0].take().filter(|r| r.seq == job.seq);
        match running.map(|r| r.pending) {
            Some(Pending::Profile { benchmark }) => {
                self.profiling_in_flight[benchmark.0] = None;
                let statistics = self.oracle.execution_statistics(benchmark);
                let base_cost = self.oracle.cost(benchmark, BASE_CONFIG);
                let predicted = predict(self);
                let mut entry = ProfileEntry::new(statistics, base_cost, predicted);
                entry.record_execution(BASE_CONFIG, base_cost);
                self.table.insert(benchmark, entry);
            }
            Some(Pending::Execution { benchmark, config }) => {
                let cost = self.oracle.cost(benchmark, config);
                if let Some(entry) = self.table.get_mut(benchmark) {
                    entry.record_execution(config, cost);
                }
            }
            None => {}
        }
    }

    /// Discard the bookkeeping of a preempted (never-completed) execution:
    /// its occupancy record and pending profiling-table update are dropped
    /// — the scheduler never observed the run finish — and an interrupted
    /// profiling execution is un-marked so the benchmark can be profiled
    /// again. A granted preemption has already launched the preempting job
    /// onto `core`, so only the victim's own record is cleared. The energy was
    /// (partially) spent but the statistics were lost: profiling_runs and
    /// its energy stay as-charged counters of attempts, which is what the
    /// overhead experiment reports.
    pub fn abort(&mut self, job: &Job, core: CoreId) {
        if self.running[core.0].is_some_and(|r| r.seq == job.seq) {
            self.running[core.0] = None;
        }
        let in_flight = &mut self.profiling_in_flight[job.benchmark.0];
        if *in_flight == Some(job.seq) {
            *in_flight = None;
        }
    }

    /// First idle core in id order, if any (one trailing-zeros scan over
    /// the idle mask words).
    pub fn first_idle(cores: &CoreIndex) -> Option<CoreId> {
        cores.first_idle()
    }

    /// Digest of every piece of observable policy state, backing
    /// [`Scheduler::state_fingerprint`](multicore_sim::Scheduler::state_fingerprint)
    /// for the stall-purity checker: two `Shared` values that differ in any
    /// decision-relevant field must fingerprint differently. Every field
    /// is an indexed array, folded in index order.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        fp.write_u64(self.stats.profiling_runs);
        fp.write_f64(self.stats.profiling_energy_nj);
        fp.write_u64(self.stats.tuning_runs);
        fp.write_u64(self.stats.decisions_evaluated);
        fp.write_u64(self.stats.decisions_ran_non_best);
        fp.write_u64(self.stats.degraded_placements);
        fp.write_u64(self.stats.fallback_predictions);
        for config in &self.core_config {
            fp.write_usize(config.design_space_index());
        }
        for slot in &self.running {
            let Some(running) = slot else {
                fp.write_u64(0);
                continue;
            };
            fp.write_u64(running.seq + 1);
            fp.write_u64(running.cost.cycles);
            fp.write_f64(running.cost.energy.dynamic_nj);
            fp.write_f64(running.cost.energy.static_nj);
            match running.pending {
                Pending::Profile { benchmark } => {
                    fp.write_u64(1);
                    fp.write_usize(benchmark.0);
                }
                Pending::Execution { benchmark, config } => {
                    fp.write_u64(2);
                    fp.write_usize(benchmark.0);
                    fp.write_usize(config.design_space_index());
                }
            }
        }
        for seq in &self.profiling_in_flight {
            fp.write_u64(seq.map_or(0, |seq| seq + 1));
        }
        for (benchmark, entry) in self.table.iter() {
            fp.write_usize(benchmark.0);
            fp.write_u64(u64::from(entry.predicted_best_size.kilobytes()));
            for (config, cost) in entry.explored() {
                fp.write_usize(config.design_space_index());
                fp.write_u64(cost.cycles);
                fp.write_f64(cost.energy.dynamic_nj);
                fp.write_f64(cost.energy.static_nj);
            }
            for size in CacheSizeKb::ALL {
                match entry.tuner(size) {
                    Some(tuner) => {
                        fp.write_u64(1 + u64::from(tuner.is_done()));
                        fp.write_usize(tuner.explored_count());
                        match tuner.best() {
                            Some((config, energy)) => {
                                fp.write_usize(config.design_space_index());
                                fp.write_f64(energy);
                            }
                            None => fp.write_u64(0),
                        }
                    }
                    None => fp.write_u64(0),
                }
            }
        }
        fp.finish()
    }
}

/// The predicted-best-core path of the two predictive systems. Both
/// profile on the profiling core, predict the best core with the ANN, tune
/// there with the Figure 5 heuristic, and degrade the same way under
/// faults and brownout; they differ only in what they do once every
/// predicted best core is busy, which
/// [`place_on_best_core`](Self::place_on_best_core) leaves to the caller.
#[derive(Debug, Clone)]
pub struct Predictive<'a> {
    pub shared: Shared<'a>,
    predictor: BestCorePredictor,
    /// Injected fault schedule; `None` outside chaos experiments.
    pub faults: Option<&'a FaultPlan>,
    /// Degraded-prediction stages, trained only when faults are injected
    /// or a serving tier is subscribed.
    fallback: Option<FallbackChain>,
    /// Brownout serving tier shared with an overload governor; `None`
    /// keeps the full-service path untouched.
    tier: Option<TierCell>,
    /// Distilled f32 student serving brownout tier 1; `None` means tier 1
    /// degrades no further than the primary.
    distilled: Option<BestCorePredictor>,
}

impl<'a> Predictive<'a> {
    /// Fresh state with a trained best-core predictor and no faults or
    /// serving tier.
    pub fn new(
        arch: &'a Architecture,
        oracle: &'a SuiteOracle,
        model: EnergyModel,
        predictor: BestCorePredictor,
    ) -> Self {
        Predictive {
            shared: Shared::new(arch, oracle, model),
            predictor,
            faults: None,
            fallback: None,
            tier: None,
            distilled: None,
        }
    }

    /// Subscribe to an injected fault schedule, degrading through `chain`.
    pub fn with_faults(mut self, plan: &'a FaultPlan, chain: FallbackChain) -> Self {
        self.faults = Some(plan);
        self.fallback = Some(chain);
        self
    }

    /// Subscribe to a brownout serving tier, training the fallback chain
    /// if no fault plan supplied one.
    pub fn with_serving_tier(
        mut self,
        cell: TierCell,
        distilled: Option<BestCorePredictor>,
    ) -> Self {
        if self.fallback.is_none() {
            self.fallback = Some(FallbackChain::train(self.shared.oracle));
        }
        self.tier = Some(cell);
        self.distilled = distilled;
        self
    }

    /// Phases 0–2 of the Figure 2 flow. Phase 0: under a full predictor
    /// blackout no stage of the fallback chain can predict, so degrade to
    /// the base system's behaviour (profiling would gather information
    /// nothing can consume). Phase 1: profile an unprofiled benchmark.
    /// Phase 2: run on an idle predicted best core. Every outcome is
    /// `Break`, except that a profiled benchmark whose predicted best
    /// cores are all busy comes back as `Continue(best_size)` with no
    /// state changed.
    #[inline]
    pub fn place_on_best_core(
        &mut self,
        job: &Job,
        cores: &CoreIndex,
        now: u64,
    ) -> ControlFlow<Decision, CacheSizeKb> {
        if let Some(plan) = self.faults {
            if plan.predictor_health(now) == PredictorHealth::AllDown {
                return ControlFlow::Break(self.schedule_degraded(job, cores));
            }
        }

        if !self.shared.table.contains(job.benchmark) {
            return ControlFlow::Break(self.shared.try_profile(job, cores));
        }

        let arch = self.shared.arch;
        let entry = self.shared.table.get(job.benchmark).expect("profiled");
        let best_size = arch.nearest_available_size(entry.predicted_best_size);

        // One masked trailing-zeros scan over the size set ∩ idle words.
        match cores.first_idle_in(arch.core_set(best_size)) {
            Some(core) => ControlFlow::Break(self.run_with_tuning(job, core)),
            None => ControlFlow::Continue(best_size),
        }
    }

    /// Dispatch to `core`, choosing directly-configured best configuration
    /// when known, or the next Figure 5 exploration step otherwise.
    #[inline]
    pub fn run_with_tuning(&mut self, job: &Job, core: CoreId) -> Decision {
        let shared = &mut self.shared;
        let size = shared.arch.core_size(core);
        let entry = shared.table.get_mut(job.benchmark).expect("profiled");
        let config = match entry.best_known_for_size(size) {
            Some((config, _)) => config,
            None => match entry.tuner_mut(size).status() {
                TuningStatus::Explore(config) => {
                    shared.stats.tuning_runs += 1;
                    config
                }
                TuningStatus::Done(config) => config,
            },
        };
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

    /// Predictor-blackout mode: with no prediction available at any chain
    /// stage, behave exactly like the base system — first idle core, base
    /// configuration, no profiling. Stall-returning calls stay pure.
    #[inline]
    fn schedule_degraded(&mut self, job: &Job, cores: &CoreIndex) -> Decision {
        let Some(core) = Shared::first_idle(cores) else {
            return Decision::Stall;
        };
        self.shared.stats.degraded_placements += 1;
        self.shared.launch(
            job,
            core,
            BASE_CONFIG,
            Pending::Execution {
                benchmark: job.benchmark,
                config: BASE_CONFIG,
            },
        )
    }

    /// Apply a completion, serving a fresh profile's best-size prediction
    /// through the worse of the fault plan's degradation and the serving
    /// tier's, and count which stage served it.
    pub fn complete(&mut self, job: &Job, core: CoreId, now: u64) {
        let benchmark = job.benchmark;
        // The fault plan's pure per-completion query decides which chain
        // stage serves — the same query the simulator stamps `Fallback`
        // trace events from, so trace and behaviour agree by construction.
        let level = self
            .faults
            .and_then(|plan| plan.fallback_level(job.seq, now));
        let tier = self
            .tier
            .as_ref()
            .map_or(ServingTier::Full, |cell| cell.get());
        let predictor = &self.predictor;
        let distilled = self.distilled.as_ref();
        let fallback = self.fallback.as_ref();
        let mut served = PredictionSource::Primary;
        self.shared.complete(job, core, |shared| {
            let statistics = shared.oracle.execution_statistics(benchmark);
            match fallback {
                Some(chain) => {
                    let (size, source) = chain.resolve_tiered(
                        predictor,
                        distilled,
                        benchmark,
                        &statistics,
                        level,
                        tier,
                    );
                    served = source;
                    size
                }
                None => predictor.predict_for(benchmark, &statistics),
            }
        });
        match served {
            PredictionSource::Primary => {}
            PredictionSource::Distilled => {
                self.shared.stats.distilled_predictions += 1;
            }
            _ => self.shared.stats.fallback_predictions += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multicore_sim::BusyInfo;
    use workloads::Suite;

    fn fixture() -> (&'static Architecture, &'static SuiteOracle, EnergyModel) {
        let model = EnergyModel::default();
        let oracle = Box::leak(Box::new(SuiteOracle::build(
            &Suite::eembc_like_small(),
            &model,
        )));
        let arch = Box::leak(Box::new(Architecture::paper_quad()));
        (arch, oracle, model)
    }

    fn job(seq: u64, benchmark: usize) -> Job {
        Job {
            seq,
            benchmark: BenchmarkId(benchmark),
            arrival: 0,
            priority: 0,
        }
    }

    fn all_idle(n: usize) -> CoreIndex {
        CoreIndex::new(n)
    }

    fn occupy(cores: &mut CoreIndex, core: CoreId, seq: u64) {
        cores.place(
            core,
            BusyInfo {
                job: job(seq, 0),
                started: 0,
                busy_until: 100,
            },
        );
    }

    #[test]
    fn launch_charges_the_oracle_cost_and_tracks_occupancy() {
        let (arch, oracle, model) = fixture();
        let mut shared = Shared::new(arch, oracle, model);
        let config = arch.default_config(CoreId(0));
        let job = job(0, 3);
        let decision = shared.launch(
            &job,
            CoreId(0),
            config,
            Pending::Execution {
                benchmark: job.benchmark,
                config,
            },
        );
        let expected = oracle.cost(job.benchmark, config);
        match decision {
            Decision::Run { core, execution } => {
                assert_eq!(core, CoreId(0));
                assert_eq!(execution.cycles, expected.cycles);
                assert_eq!(execution.energy, expected.energy);
            }
            Decision::Stall => panic!("launch must run"),
        }
        assert!(shared.running[0].is_some());
        assert_eq!(shared.core_config[0], config);
        assert!(shared.running[0].is_some_and(|running| running.seq == 0));
    }

    #[test]
    fn profile_then_complete_builds_the_table_entry() {
        let (arch, oracle, model) = fixture();
        let mut shared = Shared::new(arch, oracle, model);
        let job = job(7, 2);
        let decision = shared.try_profile(&job, &all_idle(4));
        assert!(
            matches!(decision, Decision::Run { core, .. } if core == CoreId(3)),
            "profiling must start on the primary profiling core"
        );
        assert_eq!(shared.stats.profiling_runs, 1);
        assert_eq!(shared.profiling_in_flight[2], Some(7));

        shared.complete(&job, CoreId(3), |_| cache_sim::CacheSizeKb::K4);
        assert_eq!(shared.profiling_in_flight[2], None);
        let entry = shared.table.get(BenchmarkId(2)).expect("profiled");
        assert_eq!(entry.predicted_best_size, cache_sim::CacheSizeKb::K4);
        assert!(entry.known_cost(cache_sim::BASE_CONFIG).is_some());
    }

    #[test]
    fn second_instance_stalls_while_profile_is_in_flight() {
        let (arch, oracle, model) = fixture();
        let mut shared = Shared::new(arch, oracle, model);
        let first = job(0, 5);
        let _ = shared.try_profile(&first, &all_idle(4));
        // Same benchmark again, before the profile completes.
        let second = job(1, 5);
        assert_eq!(shared.try_profile(&second, &all_idle(4)), Decision::Stall);
    }

    #[test]
    fn profiling_falls_back_to_the_secondary_core() {
        let (arch, oracle, model) = fixture();
        let mut shared = Shared::new(arch, oracle, model);
        // Core 4 (index 3) busy, core 3 (index 2) idle.
        let mut cores = all_idle(4);
        occupy(&mut cores, CoreId(3), 99);
        let decision = shared.try_profile(&job(0, 1), &cores);
        assert!(matches!(decision, Decision::Run { core, .. } if core == CoreId(2)));
        // Both profiling cores busy: stall.
        occupy(&mut cores, CoreId(2), 98);
        assert_eq!(shared.try_profile(&job(1, 2), &cores), Decision::Stall);
    }

    #[test]
    fn abort_discards_pending_knowledge() {
        let (arch, oracle, model) = fixture();
        let mut shared = Shared::new(arch, oracle, model);
        let job = job(0, 4);
        let _ = shared.try_profile(&job, &all_idle(4));
        shared.abort(&job, CoreId(3));
        assert!(shared.running[3].is_none());
        assert_eq!(shared.profiling_in_flight[4], None);
        assert!(
            !shared.table.contains(BenchmarkId(4)),
            "no entry from an aborted profile"
        );
        // The benchmark can be profiled again afterwards.
        let again = Job {
            seq: 1,
            benchmark: BenchmarkId(4),
            arrival: 10,
            priority: 0,
        };
        assert!(matches!(
            shared.try_profile(&again, &all_idle(4)),
            Decision::Run { .. }
        ));
    }

    #[test]
    fn granted_preemption_keeps_the_preempting_jobs_records() {
        // A granted preemption launches the urgent job onto the victim's
        // core (through `schedule`) before it reports the victim with
        // `on_preempt`: the victim's abort must not wipe the urgent job's
        // occupancy record or its pending table update.
        let (arch, oracle, model) = fixture();
        let mut shared = Shared::new(arch, oracle, model);
        let profile = job(0, 5);
        let _ = shared.try_profile(&profile, &all_idle(4));
        shared.complete(&profile, CoreId(3), |_| cache_sim::CacheSizeKb::K2);

        let config = arch.default_config(CoreId(0));
        let execution = |benchmark| Pending::Execution {
            benchmark: BenchmarkId(benchmark),
            config,
        };
        let (victim, urgent) = (job(1, 3), job(2, 5));
        let _ = shared.launch(&victim, CoreId(0), config, execution(3));
        let _ = shared.launch(&urgent, CoreId(0), config, execution(5));
        shared.abort(&victim, CoreId(0));
        let urgent_cost = oracle.cost(urgent.benchmark, config);
        assert_eq!(
            shared.running[0].map(|running| running.cost),
            Some(urgent_cost),
            "the preempting job occupies core 0"
        );

        shared.complete(&urgent, CoreId(0), |_| unreachable!("profiled"));
        assert!(shared.running[0].is_none());
        let entry = shared.table.get(urgent.benchmark).expect("profiled");
        assert_eq!(entry.known_cost(config), Some(urgent_cost));
    }

    #[test]
    fn idle_power_follows_the_loaded_configuration() {
        let (arch, oracle, model) = fixture();
        let mut shared = Shared::new(arch, oracle, model);
        let small = shared.idle_power(CoreId(0)); // 2KB default config
        let big = shared.idle_power(CoreId(3)); // 8KB default config
        assert!(big > small, "bigger caches leak more while idle");
        // Loading the base configuration raises core 4's idle power to the max.
        let job = job(0, 0);
        let _ = shared.launch(
            &job,
            CoreId(3),
            cache_sim::BASE_CONFIG,
            Pending::Execution {
                benchmark: job.benchmark,
                config: cache_sim::BASE_CONFIG,
            },
        );
        assert_eq!(
            shared.idle_power(CoreId(3)),
            model.static_nj_per_cycle(cache_sim::BASE_CONFIG)
        );
    }

    #[test]
    fn fingerprint_tracks_observable_state() {
        let (arch, oracle, model) = fixture();
        let mut shared = Shared::new(arch, oracle, model);
        let fresh = shared.fingerprint();
        assert_eq!(shared.fingerprint(), fresh, "digest is deterministic");

        // A profiling launch changes stats, pending, running, in-flight
        // markers and the loaded configuration: the digest must move.
        let job = job(0, 2);
        let _ = shared.try_profile(&job, &all_idle(4));
        let launched = shared.fingerprint();
        assert_ne!(launched, fresh);

        // Completing moves state again (table entry appears).
        shared.complete(&job, CoreId(3), |_| cache_sim::CacheSizeKb::K4);
        let completed = shared.fingerprint();
        assert_ne!(completed, launched);
        assert_ne!(completed, fresh);

        // A bare counter bump alone must be visible.
        shared.stats.decisions_evaluated += 1;
        assert_ne!(shared.fingerprint(), completed);
    }

    #[test]
    fn first_idle_prefers_lowest_core_id() {
        let mut cores = all_idle(3);
        occupy(&mut cores, CoreId(0), 0);
        assert_eq!(Shared::first_idle(&cores), Some(CoreId(1)));
    }
}
