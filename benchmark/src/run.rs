//! The benchmark protocol for one workload in one process: set up several
//! times, run one discarded warm-up rep, then timed reps for the time
//! budget; check the program's outputs; reduce reps to metrics.

use crate::host;
use crate::scrape::{self, ScrapeLog};
use crate::stack::{
    self, LiveSpec, ManycoreSpec, PaperSpec, RepOutcome, Scale, SetupTimes, StormSpec, SystemKind,
    Testbed, Totals,
};
use crate::stats;
use crate::trace::{self, Layer, RepTrace, Span, Tracer};
use std::time::Instant;

/// The seed of the paper's Figure 6 run (the DATE 2019 conference date).
pub const DEFAULT_SEED: u64 = 20190325;

/// Figure 6 absolute total energies at the default seed, in nJ, as
/// `results/figure6.txt` records them (base, optimal, energy-centric,
/// proposed).
pub const FIGURE6_TOTALS_NJ: [u64; 4] = [911_993_233, 624_619_792, 639_907_306, 548_983_900];

/// Total energy of the proposed system relative to base in the paper's
/// Figure 6.
pub const PAPER_ENERGY_VS_BASE: f64 = 0.71;

/// Reps whose probe is further than this share off the run's median are
/// flagged (kept, not dropped).
const PROBE_TOLERANCE: f64 = 0.10;

/// Share of the traced wall time by which layer spans and instrumentation
/// may over-claim it (leaving the simulator a negative time) before the
/// run warns.
const ACCOUNTING_TOLERANCE: f64 = 0.05;

/// Set-ups per run: at least [`MIN_SETUPS`], then more while their summed
/// time stays under [`SETUP_BUDGET_S`], up to [`MAX_SETUPS`]. The paper
/// testbed (~5 s each) gets three; the small one (~30 ms) about thirty,
/// so its median is not one slow set-up.
const MIN_SETUPS: usize = 3;
const SETUP_BUDGET_S: f64 = 1.0;
const MAX_SETUPS: usize = 30;

/// Timed reps per run at least, whatever the time budget.
const MIN_REPS: usize = 3;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Figure 6 experiment on its 4-core testbed.
    Paper,
    /// The paper quad tiled to 256 cores under Poisson load.
    Manycore,
    /// Bursty overload through admission control and brownout.
    Storm,
    /// The full governed and observed stack under scrapes.
    Live,
}

impl Workload {
    /// All four, in the order the README lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Paper,
        Workload::Manycore,
        Workload::Storm,
        Workload::Live,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::Manycore => "manycore",
            Workload::Storm => "storm",
            Workload::Live => "live",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// What to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Host seconds of timed reps (the last rep may overrun).
    pub seconds: f64,
    /// Run the traced reps and report per-layer metrics.
    pub traced: bool,
    /// Small sizes, one setup, for tests and quick checks.
    pub smoke: bool,
}

/// A workload's sizes.
#[derive(Debug, Clone, Copy)]
enum Spec {
    Paper(PaperSpec),
    Manycore(ManycoreSpec),
    Storm(StormSpec),
    Live(LiveSpec),
}

struct Plan {
    scale: Scale,
    cores: usize,
    systems: &'static [SystemKind],
    distill: bool,
    spec: Spec,
}

fn plan(workload: Workload, smoke: bool) -> Plan {
    let pick = |full: usize, small: usize| if smoke { small } else { full };
    match workload {
        Workload::Paper => Plan {
            scale: if smoke { Scale::Small } else { Scale::Paper },
            cores: 4,
            systems: &SystemKind::ALL,
            distill: false,
            // Sixteen plans, so the modeled means are not one plan's
            // luck: a single plan's mean turnaround moves ~9% from seed
            // to seed.
            spec: Spec::Paper(PaperSpec {
                plans: pick(16, 2),
                jobs: pick(5_000, 500),
                // The paper's 5000 arrivals over 700 M cycles.
                horizon: 140_000 * pick(5_000, 500) as u64,
            }),
        },
        Workload::Manycore => Plan {
            scale: Scale::Small,
            cores: pick(256, 16),
            systems: &[SystemKind::Base, SystemKind::Proposed],
            distill: false,
            spec: Spec::Manycore(ManycoreSpec {
                jobs: pick(100_000, 2_000),
                rate_per_core: 2.5,
            }),
        },
        Workload::Storm => Plan {
            scale: Scale::Small,
            cores: 4,
            systems: &[SystemKind::Base, SystemKind::Proposed],
            distill: true,
            spec: Spec::Storm(StormSpec {
                offered: pick(1_000_000, 20_000),
            }),
        },
        Workload::Live => Plan {
            scale: Scale::Small,
            cores: 4,
            systems: &[SystemKind::Base, SystemKind::Proposed],
            distill: false,
            spec: Spec::Live(LiveSpec {
                jobs: pick(1_000_000, 20_000),
                rate: 7.1,
            }),
        },
    }
}

/// One rep of the workload. `kind` picks the system of the single-system
/// workloads (`storm`, `live`); `paper` and `manycore` run theirs all.
fn rep<const ON: bool>(
    testbed: &Testbed,
    spec: Spec,
    seed: u64,
    kind: SystemKind,
    warm_up: bool,
    tracer: &Tracer,
) -> RepOutcome {
    match spec {
        Spec::Paper(spec) => stack::paper_rep::<ON>(testbed, spec, seed, warm_up, tracer),
        Spec::Manycore(spec) => stack::manycore_rep::<ON>(testbed, spec, seed, tracer),
        Spec::Storm(spec) => stack::storm_rep::<ON>(testbed, spec, seed, kind, tracer),
        Spec::Live(spec) => stack::live_rep::<ON>(testbed, spec, seed, kind, tracer),
    }
}

/// One reported number: the median over its samples, with quartiles.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Median.
    pub value: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Samples behind the value (reps or setups; 1 for exact values).
    pub samples: usize,
}

impl Metric {
    fn of(name: impl Into<String>, unit: &'static str, mut samples: Vec<f64>) -> Metric {
        let (q1, q3) = stats::quartiles(&mut samples);
        Metric {
            name: name.into(),
            unit,
            value: stats::median(&mut samples),
            q1,
            q3,
            samples: samples.len(),
        }
    }

    fn exact(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric::of(name, unit, vec![value])
    }
}

/// One correctness check and its first failure.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// The first violation, if any.
    pub failure: Option<String>,
}

#[derive(Default)]
struct Checks(Vec<Check>);

impl Checks {
    /// Record `name` as checked; keep its first failure.
    fn require(&mut self, name: &'static str, ok: bool, detail: impl FnOnce() -> String) {
        let index = match self.0.iter().position(|check| check.name == name) {
            Some(index) => index,
            None => {
                self.0.push(Check {
                    name,
                    failure: None,
                });
                self.0.len() - 1
            }
        };
        if !ok && self.0[index].failure.is_none() {
            self.0[index].failure = Some(detail());
        }
    }
}

/// Everything one run measured and checked.
#[derive(Debug)]
pub struct Report {
    /// The run's settings.
    pub options: Options,
    /// Setups performed.
    pub setups: usize,
    /// Wall time of each timed rep of the reported kind (untraced, or
    /// traced with `--trace 1`), in s.
    pub rep_wall_s: Vec<f64>,
    /// Probe time before each timed rep, in ms.
    pub probe_ms: Vec<f64>,
    /// Reps whose probe was more than 10% off the median.
    pub flagged_reps: Vec<usize>,
    /// The metrics of this mode: end-to-end, or per-layer when traced.
    pub metrics: Vec<Metric>,
    /// Further numbers printed and saved but not compared.
    pub extra: Vec<Metric>,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Operations attempted over the timed reps: offered jobs and scrapes.
    pub attempted: u64,
    /// Of which failed: jobs neither completed nor shed, failed scrapes.
    pub failed: u64,
    /// Kept spans of the traced reps.
    pub spans: Vec<Span>,
}

impl Report {
    /// `true` when every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|check| check.failure.is_none())
    }
}

/// The modeled outputs of a rep, rendered exactly (`{:?}` of an `f64` is
/// its shortest round-trip form, so equal strings mean equal bits).
fn modeled(outcome: &RepOutcome) -> String {
    format!(
        "{:?} {:?} {}",
        outcome.runs, outcome.overload, outcome.alerts_fired
    )
}

/// Per-rep checks on conservation and scrapes; counts attempts and
/// failures.
fn check_rep(outcome: &RepOutcome, checks: &mut Checks, attempted: &mut u64, failed: &mut u64) {
    for run in &outcome.runs {
        let accounted = run.metrics.jobs_completed + run.shed;
        checks.require("conservation", run.offered == accounted, || {
            format!(
                "{}: offered {} != completed {} + shed {}",
                run.kind.name(),
                run.offered,
                run.metrics.jobs_completed,
                run.shed
            )
        });
        *attempted += run.offered;
        *failed += run.offered.saturating_sub(accounted);
    }
    if let Some(log) = &outcome.scrapes {
        checks.require(
            "live_scrapes",
            log.failures == 0 && outcome.serve_errors == 0,
            || {
                format!(
                    "{} scrapes failed, {} requests refused by the server",
                    log.failures, outcome.serve_errors
                )
            },
        );
        *attempted += log.attempted();
        *failed += log.failures;
    }
}

/// Checks on the modeled outputs, which every rep reproduces.
fn check_reference(options: &Options, reference: &RepOutcome, served: u64, checks: &mut Checks) {
    match options.workload {
        Workload::Paper if !options.smoke && options.seed == DEFAULT_SEED => {
            // The first plan of a rep is Figure 6's, one run per system.
            for (run, expected) in reference.runs.iter().zip(FIGURE6_TOTALS_NJ) {
                let total = format!("{:.0}", run.metrics.energy.total());
                checks.require("figure6_totals", total == expected.to_string(), || {
                    format!(
                        "{} total {total} nJ, results/figure6.txt has {expected}",
                        run.kind.name()
                    )
                });
            }
        }
        Workload::Storm => {
            let overload = reference.overload.as_ref().expect("storm is governed");
            checks.require(
                "storm_queue_bound",
                overload.max_in_flight < stack::STORM_QUEUE_BOUND,
                || {
                    format!(
                        "in-flight peaked at {}, the queue bound is {}",
                        overload.max_in_flight,
                        stack::STORM_QUEUE_BOUND
                    )
                },
            );
            checks.require(
                "storm_tier_transitions",
                overload.tier_transitions > 0,
                || "the brownout ladder never stepped".to_string(),
            );
        }
        Workload::Live => {
            let overload = reference.overload.as_ref().expect("live is governed");
            checks.require(
                "live_quiescent",
                overload.shed() == 0 && overload.tier_transitions == 0,
                || {
                    format!(
                        "governor shed {} and stepped {} times",
                        overload.shed(),
                        overload.tier_transitions
                    )
                },
            );
            checks.require("live_scrapes", served > 0, || {
                "the server answered no scrape".to_string()
            });
        }
        Workload::Paper | Workload::Manycore => {}
    }
}

/// Build the testbed [`MIN_SETUPS`] or more times; returns the last build
/// and every build's stage times.
fn set_up(plan: &Plan, smoke: bool) -> (Testbed, Vec<SetupTimes>) {
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut testbed = None;
    let enough = |setups: &[SetupTimes]| {
        let spent: f64 = setups.iter().map(SetupTimes::total_s).sum();
        smoke
            || setups.len() >= MAX_SETUPS
            || (setups.len() >= MIN_SETUPS && spent >= SETUP_BUDGET_S)
    };
    while setups.is_empty() || !enough(&setups) {
        drop(testbed.take());
        let (built, times) = Testbed::build(plan.scale, plan.cores, plan.distill, plan.systems);
        setups.push(times);
        testbed = Some(built);
    }
    (testbed.expect("at least one setup"), setups)
}

/// Run one workload end to end.
pub fn run(options: &Options) -> Report {
    let epoch = Instant::now();
    let plan = plan(options.workload, options.smoke);
    let seed = options.seed;
    let (testbed, setups) = set_up(&plan, options.smoke);

    let mut checks = Checks::default();
    let (mut attempted, mut failed) = (0, 0);
    let untraced_tracer = Tracer::disabled();
    let proposed = SystemKind::Proposed;
    let reference = rep::<false>(&testbed, plan.spec, seed, proposed, true, &untraced_tracer);
    let expected = modeled(&reference);
    let mut served = reference.served;
    check_rep(&reference, &mut checks, &mut 0, &mut 0);
    // The energy reference: base on the same offered arrivals through the
    // same stack. `paper` and `manycore` run it in every rep.
    let base = match plan.spec {
        Spec::Storm(_) | Spec::Live(_) => {
            let outcome = rep::<false>(
                &testbed,
                plan.spec,
                seed,
                SystemKind::Base,
                false,
                &untraced_tracer,
            );
            check_rep(&outcome, &mut checks, &mut 0, &mut 0);
            outcome.totals(SystemKind::Base)
        }
        Spec::Paper(_) | Spec::Manycore(_) => reference.totals(SystemKind::Base),
    };

    // Untraced timed reps: the end-to-end numbers, or the overhead base.
    let min_reps = if options.smoke { 1 } else { MIN_REPS };
    let untraced_budget = if options.traced {
        options.seconds / 3.0
    } else {
        options.seconds
    };
    let mut untraced: Vec<(f64, f64)> = Vec::new(); // (wall s, probe ms)
    let mut completed_per_s = Vec::new();
    let mut scrape_logs = Vec::new();
    let start = Instant::now();
    while untraced.len() < min_reps || start.elapsed().as_secs_f64() < untraced_budget {
        let probe = host::probe_ms();
        let begun = Instant::now();
        let outcome = rep::<false>(&testbed, plan.spec, seed, proposed, false, &untraced_tracer);
        let wall = begun.elapsed().as_secs_f64();
        untraced.push((wall, probe));
        let completed: u64 = outcome.runs.iter().map(|r| r.metrics.jobs_completed).sum();
        completed_per_s.push(completed as f64 / wall);
        checks.require("reps_identical", modeled(&outcome) == expected, || {
            format!("rep {} differs from the warm-up rep", untraced.len())
        });
        served += outcome.served;
        if !options.traced {
            check_rep(&outcome, &mut checks, &mut attempted, &mut failed);
            scrape_logs.extend(outcome.scrapes);
        }
    }

    let mut traced: Vec<(f64, f64, RepTrace, RepOutcome)> = Vec::new();
    let mut spans = Vec::new();
    let mut extra = Vec::new();
    if options.traced {
        let calibration = trace::calibrate();
        extra.extend([
            Metric::exact("trace.child_ns", "ns", calibration.child_ns),
            Metric::exact("trace.count_ns", "ns", calibration.count_ns),
        ]);
        let traced_budget = options.seconds - untraced_budget;
        let start = Instant::now();
        while traced.len() < min_reps.min(2) || start.elapsed().as_secs_f64() < traced_budget {
            let probe = host::probe_ms();
            let tracer = Tracer::new(
                epoch,
                calibration,
                seed.wrapping_add(traced.len() as u64),
                trace::SPAN_CAP - spans.len(),
            );
            let begun = Instant::now();
            let outcome = rep::<true>(&testbed, plan.spec, seed, proposed, false, &tracer);
            let wall = begun.elapsed().as_secs_f64();
            let mut rep_trace = tracer.finish();
            spans.append(&mut rep_trace.spans);
            checks.require("traced_identical", modeled(&outcome) == expected, || {
                format!("traced rep {} differs from the untraced run", traced.len())
            });
            check_rep(&outcome, &mut checks, &mut attempted, &mut failed);
            served += outcome.served;
            scrape_logs.extend(outcome.scrapes.clone());
            traced.push((wall, probe, rep_trace, outcome));
        }
    }
    check_reference(options, &reference, served, &mut checks);

    let (rep_wall_s, probe_ms): (Vec<f64>, Vec<f64>) = if options.traced {
        traced
            .iter()
            .map(|(wall, probe, ..)| (*wall, *probe))
            .unzip()
    } else {
        untraced.iter().copied().unzip()
    };
    let probe_median = stats::median(&mut probe_ms.clone());
    let flagged_reps = probe_ms
        .iter()
        .enumerate()
        .filter(|(_, &probe)| (probe - probe_median).abs() > PROBE_TOLERANCE * probe_median)
        .map(|(index, _)| index)
        .collect();

    let metrics = if options.traced {
        let untraced_wall = stats::median(&mut untraced.iter().map(|r| r.0).collect::<Vec<_>>());
        let traced_wall = stats::median(&mut rep_wall_s.clone());
        let mut metrics = vec![
            Metric::of("host.probe_ms", "ms", probe_ms.clone()),
            Metric::exact("trace.overhead", "ratio", traced_wall / untraced_wall - 1.0),
            Metric::of(
                "setup.oracle_s",
                "s",
                setups.iter().map(|s| s.oracle_s).collect(),
            ),
            Metric::of(
                "setup.predictor_s",
                "s",
                setups.iter().map(|s| s.predictor_s).collect(),
            ),
            Metric::of(
                "setup.serving_s",
                "s",
                setups.iter().map(|s| s.serving_s).collect(),
            ),
        ];
        let per_rep: Vec<Vec<(String, &'static str, f64)>> = traced
            .iter()
            .map(|(wall, _, rep_trace, outcome)| layer_values(outcome, rep_trace, *wall))
            .collect();
        for (index, (name, unit, _)) in per_rep[0].iter().enumerate() {
            let samples = per_rep.iter().map(|values| values[index].2).collect();
            let metric = Metric::of(name.clone(), unit, samples);
            // How well the tracer measures is reported, not checked: the
            // program's outputs are right whatever the spans over-claim.
            if name == "trace.claimed" && metric.value > 1.0 + ACCOUNTING_TOLERANCE {
                eprintln!(
                    "warning: layer spans and instrumentation claim {:.3} of the traced wall",
                    metric.value
                );
            }
            if name == "trace.untraced_estimate_s" {
                extra.push(Metric::exact(
                    "trace.untraced_estimate_error",
                    "ratio",
                    metric.value / untraced_wall - 1.0,
                ));
            }
            // The harness's own bookkeeping is saved, not compared.
            if name.starts_with("trace.") {
                extra.push(metric);
            } else {
                metrics.push(metric);
            }
        }
        metrics
    } else {
        end_to_end(&reference, base, &setups, completed_per_s, &mut extra)
    };
    extra.extend(scrape_latency(&scrape_logs));

    Report {
        options: *options,
        setups: setups.len(),
        rep_wall_s,
        probe_ms,
        flagged_reps,
        metrics,
        extra,
        checks: checks.0,
        attempted,
        failed,
        spans,
    }
}

/// The end-to-end metrics, measured with tracing off. The modeled ones are
/// the proposed system's; `base` is the energy reference.
fn end_to_end(
    reference: &RepOutcome,
    base: Totals,
    setups: &[SetupTimes],
    completed_per_s: Vec<f64>,
    extra: &mut Vec<Metric>,
) -> Vec<Metric> {
    let proposed = reference.totals(SystemKind::Proposed);
    let completed = proposed.completed as f64;
    // Per completed job, so that `storm`, where the two systems shed
    // different arrivals, compares like with like; where nothing is shed
    // this is the ratio of total energies.
    let energy_vs_base = proposed.energy_per_job_nj() / base.energy_per_job_nj();
    extra.push(Metric::exact(
        "energy_vs_base_error",
        "ratio",
        energy_vs_base - PAPER_ENERGY_VS_BASE,
    ));
    vec![
        Metric::of(
            "setup_s",
            "s",
            setups.iter().map(SetupTimes::total_s).collect(),
        ),
        Metric::of("jobs_per_s", "jobs/s", completed_per_s),
        Metric::exact("peak_rss_mb", "MB", host::peak_rss_mb()),
        Metric::exact(
            "completed_fraction",
            "ratio",
            completed / proposed.offered as f64,
        ),
        Metric::exact("energy_per_job_nj", "nJ", proposed.energy_per_job_nj()),
        Metric::exact("energy_vs_base", "ratio", energy_vs_base),
        Metric::exact(
            "turnaround_mean_cycles",
            "cycles",
            proposed.turnaround_cycles as f64 / completed,
        ),
        Metric::exact(
            "latency_p99_cycles",
            "cycles",
            reference.latency.p99() as f64,
        ),
    ]
}

/// Client-side scrape latency over the timed reps (`live` only).
fn scrape_latency(logs: &[ScrapeLog]) -> Vec<Metric> {
    if logs.is_empty() {
        return Vec::new();
    }
    let mut latency: Vec<f64> = logs.iter().flat_map(|log| log.latency_ms.clone()).collect();
    vec![
        Metric::exact(
            "serve.scrape_p50_ms",
            "ms",
            stats::nearest_rank(&mut latency, 0.50),
        ),
        Metric::exact(
            "serve.scrape_p99_ms",
            "ms",
            stats::nearest_rank(&mut latency, 0.99),
        ),
        Metric::exact(
            "serve.scraper_late_ms_max",
            "ms",
            logs.iter().map(|log| log.late_ms_max).fold(0.0, f64::max),
        ),
    ]
}

/// The per-layer numbers of one traced rep. Every workload reports every
/// number; a layer the workload bypasses reads 0. Layer times are given as
/// shares of the rep's wall time, and scrape latencies as shares of the
/// scrape period, so that a bypassed layer reads 0 in a unit that is not
/// a time.
fn layer_values(
    outcome: &RepOutcome,
    trace: &RepTrace,
    wall: f64,
) -> Vec<(String, &'static str, f64)> {
    let totals = |layer: Layer| trace.layer(layer);
    let share = |layer: Layer| totals(layer).busy_s() / wall;
    let self_share = |layer: Layer| totals(layer).self_s() / wall;
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    let completed: u64 = outcome.runs.iter().map(|r| r.metrics.jobs_completed).sum();
    let completed = completed as f64;
    let sim_self_s = trace.sim_self_s(wall);
    let self_s: f64 = Layer::all().map(|layer| totals(layer).self_s()).sum();
    let overload = outcome.overload.as_ref();
    let dwell = overload.map_or([0; 4], |o| o.tier_dwell_cycles);
    let stall_offers: u64 = outcome.runs.iter().map(|r| r.metrics.stall_offers).sum();
    let proposed = outcome
        .runs_of(SystemKind::Proposed)
        .map(|run| run.stats)
        .fold([0u64; 4], |sum, stats| {
            [
                sum[0] + stats.profiling_runs,
                sum[1] + stats.tuning_runs,
                sum[2] + stats.decisions_evaluated,
                sum[3] + stats.decisions_ran_non_best,
            ]
        });
    let mut schedule_ns = trace.proposed_schedule_ns.clone();
    let period_ms = scrape::PERIOD.as_secs_f64() * 1e3;
    let (scrapes, metrics_bytes, mut scrape_ms, late_ms) =
        outcome
            .scrapes
            .as_ref()
            .map_or((0, 0.0, Vec::new(), 0.0), |log| {
                let bytes = log.metrics_bytes.iter().sum::<usize>() as f64;
                (
                    log.attempted(),
                    ratio(bytes, log.metrics_bytes.len() as f64),
                    log.latency_ms.clone(),
                    log.late_ms_max,
                )
            });

    let mut values: Vec<(String, &'static str, f64)> = vec![
        (
            "workloads.arrivals".into(),
            "count",
            outcome.arrivals as f64,
        ),
        (
            "workloads.next_ns".into(),
            "ns",
            totals(Layer::Workloads).busy_s() * 1e9 / outcome.arrivals as f64,
        ),
        (
            "workloads.share".into(),
            "ratio",
            self_share(Layer::Workloads),
        ),
        (
            "admission.offered".into(),
            "count",
            overload.map_or(0, |o| o.offered) as f64,
        ),
        (
            "admission.shed".into(),
            "count",
            overload.map_or(0, |o| o.shed()) as f64,
        ),
        (
            "admission.share".into(),
            "ratio",
            self_share(Layer::Admission),
        ),
        (
            "governor.tier_transitions".into(),
            "count",
            overload.map_or(0, |o| o.tier_transitions) as f64,
        ),
        (
            "governor.max_in_flight".into(),
            "count",
            overload.map_or(0, |o| o.max_in_flight) as f64,
        ),
        (
            "governor.degraded_share".into(),
            "ratio",
            ratio(
                dwell[1..].iter().sum::<u64>() as f64,
                dwell.iter().sum::<u64>() as f64,
            ),
        ),
        ("sim.events".into(), "count", trace.events as f64),
        (
            "sim.events_per_job".into(),
            "ratio",
            ratio(trace.events as f64, completed),
        ),
        (
            "sim.idle_span_share".into(),
            "ratio",
            ratio(trace.idle_spans as f64, trace.events as f64),
        ),
        (
            "sim.idle_power_calls_per_job".into(),
            "ratio",
            ratio(totals(Layer::IdlePower).calls as f64, completed),
        ),
        ("sim.stall_offers".into(), "count", stall_offers as f64),
        ("sim.self_s".into(), "s", sim_self_s),
        (
            "sim.self_ns_per_job".into(),
            "ns",
            sim_self_s * 1e9 / completed,
        ),
    ];
    for kind in SystemKind::ALL {
        let calls = totals(Layer::Schedule(kind)).calls as f64;
        let name = kind.name();
        values.extend([
            (format!("core.{name}.schedule_calls"), "count", calls),
            (
                format!("core.{name}.run_ratio"),
                "ratio",
                ratio(trace.runs[kind.index()] as f64, calls),
            ),
            (
                format!("core.{name}.schedule_share"),
                "ratio",
                share(Layer::Schedule(kind)),
            ),
            (
                format!("core.{name}.on_complete_share"),
                "ratio",
                share(Layer::OnComplete(kind)),
            ),
        ]);
    }
    values.extend([
        (
            "core.proposed.schedule_ns_p50".into(),
            "ns",
            stats::nearest_rank(&mut schedule_ns, 0.50),
        ),
        (
            "core.proposed.schedule_ns_p99".into(),
            "ns",
            stats::nearest_rank(&mut schedule_ns, 0.99),
        ),
        (
            "core.idle_power_share".into(),
            "ratio",
            share(Layer::IdlePower),
        ),
        (
            "core.proposed.profiling_runs".into(),
            "count",
            proposed[0] as f64,
        ),
        (
            "core.proposed.tuning_runs".into(),
            "count",
            proposed[1] as f64,
        ),
        (
            "core.proposed.decisions_evaluated".into(),
            "count",
            proposed[2] as f64,
        ),
        (
            "core.proposed.decisions_ran_non_best".into(),
            "count",
            proposed[3] as f64,
        ),
        (
            "sink.engine.share".into(),
            "ratio",
            self_share(Layer::SinkEngine),
        ),
        (
            "sink.overload.share".into(),
            "ratio",
            self_share(Layer::SinkOverload),
        ),
        (
            "sink.observed.share".into(),
            "ratio",
            self_share(Layer::SinkObserved),
        ),
        (
            "sink.finish_share".into(),
            "ratio",
            share(Layer::SinkFinish),
        ),
        ("serve.scrapes".into(), "count", scrapes as f64),
        ("serve.metrics_bytes_mean".into(), "bytes", metrics_bytes),
        (
            "serve.scrape_p50_share".into(),
            "ratio",
            stats::nearest_rank(&mut scrape_ms, 0.50) / period_ms,
        ),
        (
            "serve.scrape_p99_share".into(),
            "ratio",
            stats::nearest_rank(&mut scrape_ms, 0.99) / period_ms,
        ),
        (
            "serve.scraper_late_max_share".into(),
            "ratio",
            late_ms / period_ms,
        ),
        ("trace.empty_span_ns".into(), "ns", trace.empty_span_ns()),
        (
            "trace.instrumentation_share".into(),
            "ratio",
            trace.instrumentation_s() / wall,
        ),
        // What the rep would have taken untraced, by the trace's account.
        ("trace.untraced_estimate_s".into(), "s", self_s + sim_self_s),
        // The share of the wall the layers and the instrumentation claim;
        // the simulator's own time is the rest.
        (
            "trace.claimed".into(),
            "ratio",
            (self_s + trace.instrumentation_s()) / wall,
        ),
    ]);
    values
}
