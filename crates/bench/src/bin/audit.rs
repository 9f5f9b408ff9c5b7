//! Flight-recorder conservation audit across all four systems.
//!
//! Replays base / optimal / energy-centric / proposed under every queue
//! discipline (FIFO, Priority, PreemptivePriority) with the recording
//! sink attached, then:
//!
//! 1. re-derives the full [`Audit`] ledger from the event stream
//!    with [`LedgerAuditor`] and fails on any divergence (energies are
//!    compared to the bit, counters exactly);
//! 2. checks the stall-purity contract via [`StallPurityChecked`] —
//!    every `Stall`-returning `schedule` call must leave the policy's
//!    state fingerprint unchanged, and no call may place a job while every
//!    core its policy promised it waits for (`Scheduler::waits_for`) is
//!    busy;
//! 3. runs a mutation self-test: applies every single-site perturbation
//!    of [`hetero_bench::tamper`] (dropped arrival, idle advance,
//!    idle-power announcement, placement, stall, eviction or completion,
//!    perturbed placement energy or idle power, stretched idle advance,
//!    forged eviction refund, shifted completion) to each recorded trace
//!    of the first seed and verifies the auditor rejects every tampered
//!    stream;
//! 4. runs a contract drill: a policy whose placement on one core moves
//!    another idle core's idle power (`Scheduler::idle_power_nj_per_cycle`
//!    forbids that; the loop caches idle power on the promise) must be
//!    flagged by [`StallPurityChecked`].
//!
//! Usage: `audit [--smoke] [--export]`
//!
//! * `--smoke`  — one seed, reduced job count (used by `scripts/check.sh`).
//! * `--export` — write the first seed's proposed-system traces to
//!   `results/TRACE_<system>_<discipline>.json`.
//!
//! Exits non-zero if any ledger diverges, any stall-purity violation is
//! detected, any mutation goes unnoticed, no promise or idle power was
//! ever checked, or the contract drill goes unflagged.

use hetero_bench::tamper::MUTATIONS;
use hetero_bench::trace_json::trace_document;
use hetero_bench::{SystemKind, Testbed};
use hetero_telemetry::Histogram;
use multicore_sim::{
    Audit, CoreId, CoreIndex, Decision, Job, LedgerAuditor, QueueDiscipline, RecordingSink,
    Scheduler, Simulator, StallPurityChecked, TraceEvent,
};
use std::process::ExitCode;
use workloads::ArrivalPlan;

const DISCIPLINES: [(QueueDiscipline, &str); 3] = [
    (QueueDiscipline::Fifo, "fifo"),
    (QueueDiscipline::Priority, "priority"),
    (QueueDiscipline::PreemptivePriority, "preemptive-priority"),
];

/// Priority levels in the audit workload; >1 so the preemptive
/// discipline actually evicts.
const PRIORITY_LEVELS: u8 = 3;

/// One traced run: the ledger the simulator reported, the recorded event
/// stream, and the stall-purity outcome.
struct TracedRun {
    reported: Audit,
    events: Vec<TraceEvent>,
    stall_checks: u64,
    promise_checks: u64,
    idle_power_checks: u64,
    purity_violations: Vec<String>,
}

fn trace_one<S: Scheduler>(
    system: S,
    num_cores: usize,
    discipline: QueueDiscipline,
    plan: &ArrivalPlan,
) -> TracedRun {
    let mut checked = StallPurityChecked::new(system);
    let mut sink = RecordingSink::new();
    let metrics = Simulator::new(num_cores)
        .with_discipline(discipline)
        .run_with_sink(plan, &mut checked, &mut sink);
    TracedRun {
        reported: metrics.into(),
        events: sink.into_events(),
        stall_checks: checked.stall_checks(),
        promise_checks: checked.promise_checks(),
        idle_power_checks: checked.idle_power_checks(),
        purity_violations: checked.violations().to_vec(),
    }
}

/// A policy that breaks the idle-power contract: every placement scales
/// every core's idle power, so placing on one core moves the others.
struct DriftingIdlePower<S> {
    inner: S,
    placements: u32,
}

impl<S: Scheduler> Scheduler for DriftingIdlePower<S> {
    fn schedule(&mut self, job: &Job, cores: &CoreIndex, now: u64) -> Decision {
        let decision = self.inner.schedule(job, cores, now);
        if matches!(decision, Decision::Run { .. }) {
            self.placements += 1;
        }
        decision
    }

    fn idle_power_nj_per_cycle(&self, core: CoreId) -> f64 {
        self.inner.idle_power_nj_per_cycle(core) * (1.0 + f64::from(self.placements) * 1e-3)
    }

    fn on_complete(&mut self, job: &Job, core: CoreId, now: u64) {
        self.inner.on_complete(job, core, now);
    }

    fn on_preempt(&mut self, job: &Job, core: CoreId, now: u64) {
        self.inner.on_preempt(job, core, now);
    }

    fn state_fingerprint(&self) -> u64 {
        self.inner.state_fingerprint() ^ u64::from(self.placements)
    }
}

/// Run the base system behind [`DriftingIdlePower`] on `plan` and return
/// the idle-power violations the checker flagged.
fn idle_power_drill(testbed: &Testbed, plan: &ArrivalPlan) -> usize {
    let run = trace_one(
        DriftingIdlePower {
            inner: testbed.system(SystemKind::Base),
            placements: 0,
        },
        testbed.arch.num_cores(),
        QueueDiscipline::Fifo,
        plan,
    );
    run.purity_violations
        .iter()
        .filter(|v| v.contains("idle power"))
        .count()
}

/// Apply every applicable mutation to `run`'s trace; each must make the
/// auditor fail. Returns (applied, undetected-descriptions).
fn mutation_self_test(run: &TracedRun, num_cores: usize) -> (usize, Vec<&'static str>) {
    let auditor = LedgerAuditor::new(num_cores);
    let mut applied = 0;
    let mut undetected = Vec::new();
    for (name, mutate) in MUTATIONS {
        let Some(tampered) = mutate(&run.events) else {
            continue;
        };
        applied += 1;
        if auditor.check(&tampered, &run.reported).is_ok() {
            undetected.push(name);
        }
    }
    (applied, undetected)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let export = args.iter().any(|a| a == "--export");
    if let Some(unknown) = args.iter().find(|a| *a != "--smoke" && *a != "--export") {
        eprintln!("unknown argument: {unknown} (expected --smoke and/or --export)");
        return ExitCode::FAILURE;
    }

    let (jobs, horizon, seeds): (usize, u64, &[u64]) = if smoke {
        (120, 12_000_000, &[11])
    } else {
        (400, 40_000_000, &[11, 23, 35])
    };

    println!(
        "flight-recorder audit: 4 systems x {} disciplines x {} seed(s), {jobs} jobs each",
        DISCIPLINES.len(),
        seeds.len()
    );
    let testbed = Testbed::small();
    let num_cores = testbed.arch.num_cores();
    let auditor = LedgerAuditor::new(num_cores);

    let mut failures = 0u32;
    let mut runs = 0u32;
    // Per-run distributions instead of bare running sums: the exact sum
    // comes back out of the histogram, and the summary line gains the
    // spread across system x discipline x seed.
    let mut events_per_run = Histogram::new();
    let mut stall_checks_per_run = Histogram::new();
    let mut promise_checks = 0u64;
    let mut idle_power_checks = 0u64;
    let mut mutations_applied = 0usize;

    for &seed in seeds {
        let plan = ArrivalPlan::uniform_with_priorities(
            jobs,
            horizon,
            testbed.suite.len(),
            PRIORITY_LEVELS,
            seed,
        );
        for (discipline, discipline_name) in DISCIPLINES {
            for kind in SystemKind::ALL {
                let system_name = kind.name();
                let run = trace_one(testbed.system(kind), num_cores, discipline, &plan);
                runs += 1;
                events_per_run.record(run.events.len() as u64);
                stall_checks_per_run.record(run.stall_checks);
                promise_checks += run.promise_checks;
                idle_power_checks += run.idle_power_checks;

                let mut problems: Vec<String> = Vec::new();
                if run.reported.metrics.jobs_completed != jobs as u64 {
                    problems.push(format!(
                        "completed {} of {jobs} jobs",
                        run.reported.metrics.jobs_completed
                    ));
                }
                if let Err(divergences) = auditor.check(&run.events, &run.reported) {
                    problems.extend(divergences);
                }
                problems.extend(run.purity_violations.iter().cloned());

                // Mutation self-test on the richest trace per combination
                // (first seed): every single-site perturbation must trip
                // the auditor.
                if seed == seeds[0] {
                    let (applied, undetected) = mutation_self_test(&run, num_cores);
                    mutations_applied += applied;
                    for name in undetected {
                        problems.push(format!("mutation not detected: {name}"));
                    }
                }

                if export && seed == seeds[0] && kind == SystemKind::Proposed {
                    let doc = trace_document(system_name, discipline_name, seed, &run.events);
                    let path = format!("results/TRACE_{system_name}_{discipline_name}.json");
                    match std::fs::write(&path, doc.to_pretty()) {
                        Ok(()) => println!("  wrote {path}"),
                        Err(err) => problems.push(format!("export to {path} failed: {err}")),
                    }
                }

                let verdict = if problems.is_empty() { "ok" } else { "FAIL" };
                println!(
                    "  seed {seed:>2} {discipline_name:<20} {system_name:<14} \
                     {:>6} events  {:>5} stall checks  {:>5} promise checks  \
                     {:>5} idle-power checks  {verdict}",
                    run.events.len(),
                    run.stall_checks,
                    run.promise_checks,
                    run.idle_power_checks,
                );
                if !problems.is_empty() {
                    failures += 1;
                    for problem in &problems {
                        eprintln!("    {problem}");
                    }
                }
            }
        }
    }

    let drill_plan = ArrivalPlan::uniform_with_priorities(
        jobs,
        horizon,
        testbed.suite.len(),
        PRIORITY_LEVELS,
        seeds[0],
    );
    let drill_flags = idle_power_drill(&testbed, &drill_plan);
    println!(
        "idle-power contract drill: a placement that moves other cores' idle power \
         was flagged {drill_flags} time(s)"
    );

    println!(
        "{runs} runs audited: {} events replayed (per run p50 {} / p95 {} / max {}), \
         {} stall-purity checks, {promise_checks} promise checks, \
         {idle_power_checks} idle-power checks, {mutations_applied} mutations injected",
        events_per_run.sum(),
        events_per_run.p50(),
        events_per_run.p95(),
        events_per_run.max(),
        stall_checks_per_run.sum(),
    );
    if mutations_applied == 0 {
        eprintln!("self-test never ran: no mutation was applicable");
        return ExitCode::FAILURE;
    }
    if failures > 0 {
        eprintln!("AUDIT FAILED: {failures} run(s) diverged");
        return ExitCode::FAILURE;
    }
    if promise_checks == 0 {
        eprintln!("no waits_for promise was ever checked");
        return ExitCode::FAILURE;
    }
    if idle_power_checks == 0 {
        eprintln!("no idle power was ever checked");
        return ExitCode::FAILURE;
    }
    if drill_flags == 0 {
        eprintln!("idle-power contract drill went unflagged");
        return ExitCode::FAILURE;
    }
    println!(
        "AUDIT PASSED: every ledger re-derived bit-for-bit; all stall paths pure; \
         every promise kept; every idle power kept"
    );
    ExitCode::SUCCESS
}
