//! Shared experiment harness for reproducing the paper's evaluation
//! (Section V/VI): builds the suite, oracle, and predictor once, runs the
//! four systems on one arrival plan, and formats the Figure 6 / Figure 7
//! normalisations.
//!
//! [`Testbed::system`] is the one place the harness builds the four
//! systems: it returns a [`System`], which is a [`Scheduler`] itself and
//! keeps each system's concrete type so its counters stay readable after
//! a run. Every bin and property suite that compares the four systems
//! loops over [`SystemKind::ALL`] through it. [`Testbed::shared_small`]
//! and [`tiled_architecture`] are the fixtures the property suites
//! share.
//!
//! The experiment binaries (`figure6`, `figure7`, `ann_accuracy`,
//! `overheads`, `ablations`, `table1`) are thin wrappers over this crate.

pub mod json;
pub mod perf;
pub mod perfetto;
pub mod report;
pub mod tamper;
pub mod telemetry_json;
pub mod trace_json;

use cache_sim::CacheSizeKb;
use energy_model::{EnergyBreakdown, EnergyModel};
use hetero_core::{
    Architecture, BaseSystem, BestCorePredictor, EnergyCentricSystem, FallbackChain, OptimalSystem,
    PredictorConfig, ProposedSystem, SystemStats,
};
use multicore_sim::{
    CoreId, CoreIndex, CoreSet, Decision, FaultPlan, Job, RunMetrics, Scheduler, Simulator,
    TierCell,
};
use std::sync::OnceLock;
use workloads::{ArrivalPlan, Suite};

pub use hetero_core::SuiteOracle;

/// Everything the experiments share: suite, energy model, oracle,
/// architecture, and the trained predictor.
pub struct Testbed {
    /// The benchmark suite.
    pub suite: Suite,
    /// The Figure 4 energy model.
    pub model: EnergyModel,
    /// Exhaustive design-space characterisation.
    pub oracle: SuiteOracle,
    /// The Figure 1 architecture.
    pub arch: Architecture,
    /// The trained bagged-ANN predictor.
    pub predictor: BestCorePredictor,
}

impl Testbed {
    /// Build the full-size testbed with the paper's predictor
    /// configuration.
    pub fn paper() -> Self {
        Self::with_suite(Suite::eembc_like(), PredictorConfig::paper())
    }

    /// A reduced testbed for fast runs.
    pub fn small() -> Self {
        Self::with_suite(Suite::eembc_like_small(), PredictorConfig::fast())
    }

    /// One [`small`](Self::small) testbed per process, built on first
    /// use: the oracle build and predictor training dominate a property
    /// suite's cost, and every case reads the same fixture.
    pub fn shared_small() -> &'static Testbed {
        static TESTBED: OnceLock<Testbed> = OnceLock::new();
        TESTBED.get_or_init(Testbed::small)
    }

    /// Build over an explicit suite and predictor configuration.
    pub fn with_suite(suite: Suite, predictor_config: PredictorConfig) -> Self {
        let model = EnergyModel::default();
        let oracle = SuiteOracle::build(&suite, &model);
        let arch = Architecture::paper_quad();
        let predictor = BestCorePredictor::train(&oracle, &predictor_config);
        Testbed {
            suite,
            model,
            oracle,
            arch,
            predictor,
        }
    }

    /// The paper's arrival workload: `jobs` uniform arrivals over
    /// `horizon` cycles (Sec. V uses 5000 arrivals).
    pub fn plan(&self, jobs: usize, horizon: u64, seed: u64) -> ArrivalPlan {
        ArrivalPlan::uniform(jobs, horizon, self.suite.len(), seed)
    }

    /// A fresh instance of one system on the testbed's architecture.
    pub fn system(&self, kind: SystemKind) -> System<'_> {
        match kind {
            SystemKind::Base => System::Base(BaseSystem::new(
                &self.oracle,
                self.model,
                self.arch.num_cores(),
            )),
            SystemKind::Optimal => {
                System::Optimal(OptimalSystem::new(&self.arch, &self.oracle, self.model))
            }
            SystemKind::EnergyCentric => System::EnergyCentric(EnergyCentricSystem::new(
                &self.arch,
                &self.oracle,
                self.model,
                self.predictor.clone(),
            )),
            SystemKind::Proposed => System::Proposed(ProposedSystem::with_model(
                &self.arch,
                &self.oracle,
                self.model,
                self.predictor.clone(),
            )),
        }
    }

    /// Run all four systems on one plan.
    ///
    /// The four simulations are independent (each builds its own scheduler
    /// state over shared read-only inputs), so they fan out across worker
    /// threads (`HETERO_THREADS` governs the count) and merge back in the
    /// paper's presentation order — the outcome is identical at any worker
    /// count; see [`run_all_with_threads`](Self::run_all_with_threads).
    pub fn run_all(&self, plan: &ArrivalPlan) -> Comparison {
        self.run_all_with_threads(plan, hetero_parallel::worker_count())
    }

    /// [`run_all`](Self::run_all) with an explicit worker count.
    /// `workers = 1` runs the four systems sequentially on the caller in
    /// the legacy order (base, optimal, energy-centric, proposed).
    pub fn run_all_with_threads(&self, plan: &ArrivalPlan, workers: usize) -> Comparison {
        let mut runs = hetero_parallel::map_indexed(4, workers, |i| {
            let mut system = self.system(SystemKind::ALL[i]);
            let metrics = Simulator::new(self.arch.num_cores()).run(plan, &mut system);
            SystemRun {
                metrics,
                stats: system.stats(),
            }
        });
        let proposed = runs.pop().expect("four runs");
        let energy_centric = runs.pop().expect("four runs");
        let optimal = runs.pop().expect("four runs");
        let base = runs.pop().expect("four runs");
        Comparison {
            base,
            optimal,
            energy_centric,
            proposed,
        }
    }
}

/// The paper's 2/4/8/8 KB quad tiled to `num_cores` (a multiple of 4,
/// so the last two cores are 8 KB and can profile).
pub fn tiled_architecture(num_cores: usize) -> Architecture {
    use CacheSizeKb::{K2, K4, K8};
    assert!(
        num_cores >= 4 && num_cores.is_multiple_of(4),
        "tile whole quads"
    );
    let sizes = (0..num_cores).map(|i| [K2, K4, K8, K8][i % 4]).collect();
    Architecture::new(sizes, CoreId(num_cores - 1), Some(CoreId(num_cores - 2)))
}

/// The four systems of the paper's evaluation (Sec. V).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// Fixed `8KB_4W_64B` on every core.
    Base,
    /// Exhaustive-search comparator.
    Optimal,
    /// ANN + always-stall comparator.
    EnergyCentric,
    /// The paper's proposed system.
    Proposed,
}

impl SystemKind {
    /// All four, in the paper's presentation order.
    pub const ALL: [SystemKind; 4] = [
        SystemKind::Base,
        SystemKind::Optimal,
        SystemKind::EnergyCentric,
        SystemKind::Proposed,
    ];

    /// The display name the bins print and accept.
    pub fn name(self) -> &'static str {
        match self {
            SystemKind::Base => "base",
            SystemKind::Optimal => "optimal",
            SystemKind::EnergyCentric => "energy-centric",
            SystemKind::Proposed => "proposed",
        }
    }

    /// The kind whose [`name`](Self::name) is `name`.
    pub fn from_name(name: &str) -> Option<SystemKind> {
        Self::ALL.into_iter().find(|kind| kind.name() == name)
    }
}

/// One system built by [`Testbed::system`], keeping its concrete type so
/// its counters stay readable after a run.
pub enum System<'a> {
    /// See [`SystemKind::Base`].
    Base(BaseSystem<'a>),
    /// See [`SystemKind::Optimal`].
    Optimal(OptimalSystem<'a>),
    /// See [`SystemKind::EnergyCentric`].
    EnergyCentric(EnergyCentricSystem<'a>),
    /// See [`SystemKind::Proposed`].
    Proposed(ProposedSystem<'a>),
}

impl<'a> System<'a> {
    /// Subscribe the two predictive systems to a fault plan, degrading
    /// through `chain`; base and optimal take no predictions, so they
    /// pass through unchanged.
    pub fn with_faults(self, plan: &'a FaultPlan, chain: FallbackChain) -> Self {
        match self {
            System::EnergyCentric(system) => System::EnergyCentric(system.with_faults(plan, chain)),
            System::Proposed(system) => System::Proposed(system.with_faults(plan, chain)),
            other => other,
        }
    }

    /// Subscribe the two predictive systems to a brownout serving tier;
    /// base and optimal pass through unchanged.
    pub fn with_serving_tier(self, cell: TierCell, distilled: Option<BestCorePredictor>) -> Self {
        match self {
            System::EnergyCentric(system) => {
                System::EnergyCentric(system.with_serving_tier(cell, distilled))
            }
            System::Proposed(system) => System::Proposed(system.with_serving_tier(cell, distilled)),
            other => other,
        }
    }

    /// Scheduler-level counters; the base system keeps none.
    pub fn stats(&self) -> SystemStats {
        match self {
            System::Base(_) => SystemStats::default(),
            System::Optimal(system) => system.stats(),
            System::EnergyCentric(system) => system.stats(),
            System::Proposed(system) => system.stats(),
        }
    }

    fn scheduler(&self) -> &dyn Scheduler {
        match self {
            System::Base(system) => system,
            System::Optimal(system) => system,
            System::EnergyCentric(system) => system,
            System::Proposed(system) => system,
        }
    }

    fn scheduler_mut(&mut self) -> &mut dyn Scheduler {
        match self {
            System::Base(system) => system,
            System::Optimal(system) => system,
            System::EnergyCentric(system) => system,
            System::Proposed(system) => system,
        }
    }
}

/// Forwards every method, `waits_for` included: a wrapper that drops it
/// hides energy-centric's wait-set promise from the loop.
impl Scheduler for System<'_> {
    fn schedule(&mut self, job: &Job, cores: &CoreIndex, now: u64) -> Decision {
        self.scheduler_mut().schedule(job, cores, now)
    }

    fn waits_for(&self, job: &Job) -> Option<&CoreSet> {
        self.scheduler().waits_for(job)
    }

    fn idle_power_nj_per_cycle(&self, core: CoreId) -> f64 {
        self.scheduler().idle_power_nj_per_cycle(core)
    }

    fn on_complete(&mut self, job: &Job, core: CoreId, now: u64) {
        self.scheduler_mut().on_complete(job, core, now);
    }

    fn on_preempt(&mut self, job: &Job, core: CoreId, now: u64) {
        self.scheduler_mut().on_preempt(job, core, now);
    }

    fn state_fingerprint(&self) -> u64 {
        self.scheduler().state_fingerprint()
    }
}

/// One system's simulation outcome plus its instrumentation counters.
#[derive(Debug, Clone)]
pub struct SystemRun {
    /// Simulator-level metrics.
    pub metrics: RunMetrics,
    /// Scheduler-level counters.
    pub stats: SystemStats,
}

/// The four systems' outcomes on one shared arrival plan.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Fixed `8KB_4W_64B` on every core.
    pub base: SystemRun,
    /// Exhaustive-search comparator.
    pub optimal: SystemRun,
    /// ANN + always-stall comparator.
    pub energy_centric: SystemRun,
    /// The paper's proposed system.
    pub proposed: SystemRun,
}

impl Comparison {
    /// Iterate as (name, run) pairs in the paper's presentation order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &SystemRun)> {
        SystemKind::ALL.map(SystemKind::name).into_iter().zip([
            &self.base,
            &self.optimal,
            &self.energy_centric,
            &self.proposed,
        ])
    }
}

/// The paper's energy reporting convention: its figures show **idle**,
/// **dynamic**, and **total** bars. All leakage (idle cores + busy cores)
/// is grouped under "idle"-style static energy in our breakdown; we report
/// both groupings so the mapping is explicit.
#[derive(Debug, Clone, Copy)]
pub struct EnergyRow {
    /// Idle-core leakage only.
    pub idle_nj: f64,
    /// Dynamic energy.
    pub dynamic_nj: f64,
    /// Busy-core leakage.
    pub static_nj: f64,
    /// Everything.
    pub total_nj: f64,
}

impl EnergyRow {
    /// Extract from a breakdown.
    pub fn from_breakdown(energy: &EnergyBreakdown) -> Self {
        EnergyRow {
            idle_nj: energy.idle_nj,
            dynamic_nj: energy.dynamic_nj,
            static_nj: energy.static_nj,
            total_nj: energy.total(),
        }
    }

    /// Component-wise ratio to a baseline row (Figure 6/7 bars).
    pub fn normalized_to(&self, baseline: &EnergyRow) -> [f64; 3] {
        [
            self.idle_nj / baseline.idle_nj,
            self.dynamic_nj / baseline.dynamic_nj,
            self.total_nj / baseline.total_nj,
        ]
    }
}

/// Print a Figure 6/7-style normalised table.
///
/// `baseline` picks the normalisation row (Figure 6: base; Figure 7:
/// optimal). Cycles are included for Figure 7's performance series.
pub fn print_normalized_table(comparison: &Comparison, baseline_name: &str) {
    let baseline = comparison
        .iter()
        .find(|(name, _)| *name == baseline_name)
        .expect("baseline exists")
        .1;
    let baseline_row = EnergyRow::from_breakdown(&baseline.metrics.energy);
    let baseline_cycles = baseline.metrics.total_cycles as f64;

    println!(
        "{:<16} {:>8} {:>9} {:>8} {:>8}   (normalised to {})",
        "system", "idle", "dynamic", "total", "cycles", baseline_name
    );
    for (name, run) in comparison.iter() {
        let row = EnergyRow::from_breakdown(&run.metrics.energy);
        let [idle, dynamic, total] = row.normalized_to(&baseline_row);
        println!(
            "{:<16} {:>8.3} {:>9.3} {:>8.3} {:>8.3}",
            name,
            idle,
            dynamic,
            total,
            run.metrics.total_cycles as f64 / baseline_cycles,
        );
    }
}

/// Standard experiment scale: the paper's 5000 uniform arrivals, with a
/// horizon that yields moderate contention on the quad-core system.
pub const PAPER_JOBS: usize = 5000;

/// Default arrival horizon in cycles for [`PAPER_JOBS`] arrivals.
pub const PAPER_HORIZON: u64 = 700_000_000;

/// Default arrival-plan seed (printed by every binary for reproduction).
pub const PAPER_SEED: u64 = 20190325; // DATE 2019 conference date

/// Parse `[jobs] [horizon] [seed]` from argv, each defaulting to the
/// paper's value when absent. A malformed or extra argument is a usage
/// error: the process names it on stderr and exits with status 1.
pub fn parse_plan_args() -> (usize, u64, u64) {
    let mut argv = std::env::args();
    let bin = argv.next().unwrap_or_default();
    plan_args(argv).unwrap_or_else(|problem| {
        eprintln!("{problem}\nusage: {bin} [jobs] [horizon] [seed]");
        std::process::exit(1)
    })
}

/// `[jobs] [horizon] [seed]` from `args`, or the first argument that does
/// not belong there.
fn plan_args(args: impl IntoIterator<Item = String>) -> Result<(usize, u64, u64), String> {
    fn arg<T: std::str::FromStr>(arg: Option<String>, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        arg.map_or(Ok(default), |arg| {
            arg.parse()
                .map_err(|e| format!("{name}: cannot parse {arg:?}: {e}"))
        })
    }
    let mut args = args.into_iter();
    let jobs = arg(args.next(), "jobs", PAPER_JOBS)?;
    let horizon = arg(args.next(), "horizon", PAPER_HORIZON)?;
    let seed = arg(args.next(), "seed", PAPER_SEED)?;
    match args.next() {
        Some(extra) => Err(format!("unexpected argument: {extra:?}")),
        None => Ok((jobs, horizon, seed)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multicore_sim::{ledger_divergences, QueueDiscipline, StallPurityChecked};

    fn plan(args: &[&str]) -> Result<(usize, u64, u64), String> {
        plan_args(args.iter().map(|arg| arg.to_string()))
    }

    #[test]
    fn plan_args_take_each_given_value_and_default_the_rest() {
        assert_eq!(plan(&[]), Ok((PAPER_JOBS, PAPER_HORIZON, PAPER_SEED)));
        assert_eq!(plan(&["500"]), Ok((500, PAPER_HORIZON, PAPER_SEED)));
        assert_eq!(plan(&["500", "60000000", "7"]), Ok((500, 60_000_000, 7)));
    }

    #[test]
    fn a_malformed_or_extra_plan_arg_is_named_in_the_error() {
        for (args, named) in [
            (
                &["500", "6e7", "20190325"][..],
                "horizon: cannot parse \"6e7\"",
            ),
            (&["-5"][..], "jobs: cannot parse \"-5\""),
            (
                &["500", "60000000", "seed"][..],
                "seed: cannot parse \"seed\"",
            ),
            (
                &["500", "60000000", "7", "8"][..],
                "unexpected argument: \"8\"",
            ),
            (&["--smoke"][..], "jobs: cannot parse \"--smoke\""),
        ] {
            let problem = plan(args).expect_err("usage error");
            assert!(problem.starts_with(named), "{args:?}: {problem}");
        }
    }

    /// A run under the stall-purity checker: the ledger, the final policy
    /// fingerprint, and the checker's stall, promise and idle-power
    /// check counts.
    fn checked_run<S: Scheduler>(
        sim: &Simulator,
        plan: &ArrivalPlan,
        system: S,
    ) -> (RunMetrics, u64, [u64; 3]) {
        let mut checked = StallPurityChecked::new(system);
        let metrics = sim.run(plan, &mut checked);
        checked.assert_pure();
        let checks = [
            checked.stall_checks(),
            checked.promise_checks(),
            checked.idle_power_checks(),
        ];
        (metrics, checked.inner().state_fingerprint(), checks)
    }

    /// `System` forwards every `Scheduler` method: each kind run through
    /// the enum and as the concrete system inside it leaves the same
    /// ledger, fingerprint and checker counts under every discipline.
    /// Energy-centric's promise checks fail if `waits_for` is dropped,
    /// which no metric shows.
    #[test]
    fn system_forwards_every_scheduler_method() {
        let t = Testbed::shared_small();
        let plan = ArrivalPlan::uniform_with_priorities(150, 2_500_000, t.suite.len(), 3, 9);
        for discipline in [
            QueueDiscipline::Fifo,
            QueueDiscipline::Priority,
            QueueDiscipline::PreemptivePriority,
        ] {
            let sim = Simulator::new(t.arch.num_cores()).with_discipline(discipline);
            for kind in SystemKind::ALL {
                let (metrics, fingerprint, checks) = checked_run(&sim, &plan, t.system(kind));
                let (concrete, concrete_fingerprint, concrete_checks) = match t.system(kind) {
                    System::Base(system) => checked_run(&sim, &plan, system),
                    System::Optimal(system) => checked_run(&sim, &plan, system),
                    System::EnergyCentric(system) => checked_run(&sim, &plan, system),
                    System::Proposed(system) => checked_run(&sim, &plan, system),
                };
                let what = format!("{} {discipline:?}", kind.name());
                let divergences = ledger_divergences(&metrics, &concrete);
                assert!(divergences.is_empty(), "{what}: {divergences:?}");
                assert_eq!(fingerprint, concrete_fingerprint, "{what}");
                assert_eq!(checks, concrete_checks, "{what}: stall/promise/idle checks");
                if kind == SystemKind::EnergyCentric {
                    assert!(checks[1] > 0, "{what}: no promise was checked");
                }
            }
        }
    }

    #[test]
    fn system_kind_names_round_trip() {
        for kind in SystemKind::ALL {
            assert_eq!(SystemKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(SystemKind::from_name("all"), None);
    }

    #[test]
    fn small_testbed_runs_all_four_systems() {
        let testbed = Testbed::small();
        let plan = testbed.plan(120, 30_000_000, 1);
        let comparison = testbed.run_all(&plan);
        for (name, run) in comparison.iter() {
            assert_eq!(run.metrics.jobs_completed, 120, "{name}");
            assert!(run.metrics.energy.total() > 0.0, "{name}");
        }
    }

    #[test]
    fn proposed_beats_base_on_the_standard_shape() {
        // End-to-end smoke test of the fused characterisation pipeline:
        // the testbed's oracle and predictor were built through the fused
        // sweep and threaded fan-out, and the paper's headline ordering
        // must survive at any worker count.
        let testbed = Testbed::small();
        let plan = testbed.plan(300, 50_000_000, 2);
        for workers in [1, 4] {
            let comparison = testbed.run_all_with_threads(&plan, workers);
            assert!(
                comparison.proposed.metrics.energy.total() < comparison.base.metrics.energy.total(),
                "workers={workers}"
            );
        }
    }

    /// Two comparisons agree run for run: every `RunMetrics` field, and
    /// every scheduler counter, energies to the bit.
    fn assert_identical(a: &Comparison, b: &Comparison, what: &str) {
        for ((name, a), (_, b)) in a.iter().zip(b.iter()) {
            let divergences = multicore_sim::ledger_divergences(&a.metrics, &b.metrics);
            assert!(divergences.is_empty(), "{name} {what}: {divergences:?}");
            assert_eq!(a.stats, b.stats, "{name} {what}");
            assert_eq!(
                a.stats.profiling_energy_nj.to_bits(),
                b.stats.profiling_energy_nj.to_bits(),
                "{name} {what}: energy bits"
            );
        }
    }

    #[test]
    fn threaded_run_all_is_bit_identical_to_one_worker() {
        let testbed = Testbed::small();
        let plan = testbed.plan(150, 30_000_000, 7);
        let one = testbed.run_all_with_threads(&plan, 1);
        let four = testbed.run_all_with_threads(&plan, 4);
        assert_identical(&one, &four, "workers 1 vs 4");
    }

    /// Satellite check: memoizing ensemble predictions per benchmark id
    /// changes no observable outcome — all four systems' `RunMetrics` and
    /// scheduler counters are bitwise identical with and without the memo
    /// table, at one worker and at several.
    #[test]
    fn memoized_predictor_leaves_run_metrics_unchanged() {
        let mut testbed = Testbed::small();
        let plan = testbed.plan(150, 30_000_000, 11);
        let memoized: Vec<Comparison> = [1usize, 4]
            .iter()
            .map(|&w| testbed.run_all_with_threads(&plan, w))
            .collect();
        testbed.predictor = testbed.predictor.without_memo();
        for (workers, with_memo) in [1usize, 4].into_iter().zip(&memoized) {
            let without = testbed.run_all_with_threads(&plan, workers);
            assert_identical(with_memo, &without, &format!("workers={workers}"));
        }
    }

    #[test]
    fn energy_row_normalisation_is_component_wise() {
        let row = EnergyRow {
            idle_nj: 2.0,
            dynamic_nj: 4.0,
            static_nj: 1.0,
            total_nj: 7.0,
        };
        let baseline = EnergyRow {
            idle_nj: 4.0,
            dynamic_nj: 2.0,
            static_nj: 1.0,
            total_nj: 7.0,
        };
        assert_eq!(row.normalized_to(&baseline), [0.5, 2.0, 1.0]);
    }
}
