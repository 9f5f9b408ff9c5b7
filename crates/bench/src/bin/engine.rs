//! Streaming service driver: open-loop load, bounded-memory runs,
//! snapshots, SLO verdicts, and run-to-run comparison.
//!
//! Unlike the batch experiment binaries (which materialise an
//! [`ArrivalPlan`](workloads::ArrivalPlan) and retain every per-job
//! metric), this driver feeds the simulator from a lazy
//! [`OpenLoop`] arrival process and folds the run
//! through the engine's snapshot ring — memory stays bounded no matter
//! how many jobs flow through.
//!
//! Usage:
//!
//! ```text
//! engine [--system base|optimal|energy-centric|proposed|all] [--process poisson|bursty|diurnal|ramp|mix]
//!        [--jobs N] [--rate R] [--seed S] [--export PATH.json] [--csv] [--md]
//!        [--slo-p99 CYCLES] [--slo-energy NJ] [--smoke]
//!        [--serve PORT] [--linger SECS] [--perfetto PATH.json] [--serve-smoke]
//! engine compare OLD.json NEW.json
//! ```
//!
//! * `--system` — which scheduler(s) to serve (default `all`; the four
//!   systems fan out across worker threads).
//! * `--process` — the arrival process shape (default `poisson`); `mix`
//!   composes a steady Poisson floor with a bursty overlay.
//! * `--rate` — offered load in jobs per mega-cycle (default 7.1, the
//!   paper's 5000 jobs / 700M cycles); must be positive and finite, and
//!   so must the process's peak in jobs per cycle (3x the rate for
//!   `bursty`, 1.8x for `ramp`, 0.5x and 2x for `mix`'s floor and
//!   overlay), which rules out subnormal rates too.
//! * `--slo-p99` / `--slo-energy` — optional budgets; when any budget
//!   fails the process exits non-zero (fleet-check style).
//! * `--export` — write a JSON artifact consumable by `engine compare`.
//! * `--csv` / `--md` — dump the snapshot time series / run summaries.
//! * `--smoke` — reduced suite and job count, loose budgets, no
//!   artifacts (used by `scripts/check.sh`).
//! * `--serve PORT` — run ONE system (the selected one; `all` falls
//!   back to `proposed`) with the live observability plane attached: an
//!   HTTP endpoint on `127.0.0.1:PORT` answers `/metrics` (Prometheus
//!   text), `/health` (alert + progress JSON), and `/snapshot` (the
//!   snapshot ring's tail) *during* the run, polled at snapshot
//!   boundaries. `--linger SECS` keeps answering on the final state
//!   for SECS seconds after the run completes (a negative, non-finite
//!   or out-of-range SECS is a usage error). A port that cannot be
//!   bound is reported and the process exits non-zero before the run
//!   starts.
//! * `--perfetto PATH.json` — assemble causal job/core spans over the
//!   same single-system run and write a Chrome trace-event JSON
//!   artifact loadable at `ui.perfetto.dev` (schema-validated before it
//!   is written). Composes with `--serve`.
//! * `--serve-smoke` — scrape all three endpoints from client threads
//!   while a short small-testbed run is live, then round-trip the
//!   Perfetto artifact through the in-repo JSON parser; exits non-zero
//!   on any miss (used by `scripts/check.sh`).
//!
//! `engine compare` diffs two exported artifacts system-by-system and
//! flags regressions in throughput, p99 latency, and energy per job.

use hetero_bench::json::Json;
use hetero_bench::perfetto::{perfetto_document, validate_perfetto};
use hetero_bench::{SystemKind, Testbed};
use hetero_engine::{
    export, EngineConfig, EngineReport, ObserveConfig, ObservedSink, Outcome, RunSpec, SloPolicy,
};
use hetero_telemetry::BurnRateRule;
use multicore_sim::Simulator;
use std::process::ExitCode;
use std::time::Duration;
use workloads::{Arrival, Compose, OpenLoop};

struct Options {
    system: String,
    process: String,
    jobs: usize,
    rate: f64,
    seed: u64,
    export: Option<String>,
    csv: bool,
    md: bool,
    slo_p99: Option<u64>,
    slo_energy: Option<f64>,
    smoke: bool,
    serve: Option<u16>,
    linger: Duration,
    perfetto: Option<String>,
    serve_smoke: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut options = Options {
            system: "all".to_string(),
            process: "poisson".to_string(),
            jobs: 20_000,
            rate: 7.1,
            seed: hetero_bench::PAPER_SEED,
            export: None,
            csv: false,
            md: false,
            slo_p99: None,
            slo_energy: None,
            smoke: false,
            serve: None,
            linger: Duration::ZERO,
            perfetto: None,
            serve_smoke: false,
        };
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            let mut value = |flag: &str| {
                iter.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match arg.as_str() {
                "--system" => options.system = value("--system")?,
                "--process" => options.process = value("--process")?,
                "--jobs" => {
                    options.jobs = value("--jobs")?
                        .parse()
                        .map_err(|e| format!("--jobs: {e}"))?
                }
                "--rate" => {
                    let rate: f64 = value("--rate")?
                        .parse()
                        .map_err(|e| format!("--rate: {e}"))?;
                    if !(rate > 0.0 && rate.is_finite()) {
                        return Err(format!("--rate must be positive and finite, got {rate}"));
                    }
                    options.rate = rate;
                }
                "--seed" => {
                    options.seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--export" => options.export = Some(value("--export")?),
                "--csv" => options.csv = true,
                "--md" => options.md = true,
                "--slo-p99" => {
                    options.slo_p99 = Some(
                        value("--slo-p99")?
                            .parse()
                            .map_err(|e| format!("--slo-p99: {e}"))?,
                    )
                }
                "--slo-energy" => {
                    options.slo_energy = Some(
                        value("--slo-energy")?
                            .parse()
                            .map_err(|e| format!("--slo-energy: {e}"))?,
                    )
                }
                "--smoke" => options.smoke = true,
                "--serve" => {
                    options.serve = Some(
                        value("--serve")?
                            .parse()
                            .map_err(|e| format!("--serve: {e}"))?,
                    )
                }
                "--linger" => {
                    let secs: f64 = value("--linger")?
                        .parse()
                        .map_err(|e| format!("--linger: {e}"))?;
                    options.linger = Duration::try_from_secs_f64(secs)
                        .map_err(|e| format!("--linger {secs:?}: {e}"))?;
                }
                "--perfetto" => options.perfetto = Some(value("--perfetto")?),
                "--serve-smoke" => options.serve_smoke = true,
                unknown => return Err(format!("unknown argument: {unknown}")),
            }
        }
        if options.smoke {
            options.jobs = options.jobs.min(2_000);
        }
        if SystemKind::from_name(&options.system).is_none() && options.system != "all" {
            return Err(format!(
                "unknown system {:?} (expected base|optimal|energy-centric|proposed|all)",
                options.system
            ));
        }
        // Check the process name and its peak rate here, before the
        // caller pays for the testbed build.
        let _ = arrivals(&options.process, options.rate, 1, 0, 0)?;
        Ok(options)
    }

    /// The selected system, or `None` for `all`.
    fn kind(&self) -> Option<SystemKind> {
        SystemKind::from_name(&self.system)
    }

    fn policy(&self) -> SloPolicy {
        SloPolicy {
            max_p99_latency_cycles: self.slo_p99,
            max_energy_per_job_nj: self.slo_energy,
            min_throughput_jobs_per_mcycle: None,
        }
    }
}

/// Build the chosen arrival process, bounded at `jobs` arrivals.
///
/// Every shape averages close to `rate` jobs/Mcycle so SLO budgets and
/// `engine compare` stay meaningful across processes. Each system gets
/// the same stream (the process is deterministic in its seed).
fn arrivals(
    process: &str,
    rate: f64,
    num_benchmarks: usize,
    seed: u64,
    jobs: usize,
) -> Result<Box<dyn Iterator<Item = Arrival>>, String> {
    const PERIOD: u64 = 40_000_000;
    // Each process peaks at a multiple of `rate` jobs/Mcycle, which it
    // divides by 1e6 into jobs/cycle: a huge finite rate can push the
    // multiple past f64's range, and a subnormal one rounds its per-cycle
    // rate to zero.
    let peak = |factor: f64| {
        let peak = factor * rate;
        if peak.is_finite() && peak / 1e6 > 0.0 {
            Ok(peak)
        } else {
            Err(format!(
                "--rate {rate:?} gives the {process} process a peak of {peak:?} jobs/Mcycle \
                 ({factor} x the rate), not a positive finite rate per cycle"
            ))
        }
    };
    // Poisson runs at the rate itself, and diurnal swings around it (its
    // peak, 1.8x the rate, is positive whenever the rate is).
    peak(1.0)?;
    let source: Box<dyn Iterator<Item = Arrival>> = match process {
        "poisson" => Box::new(OpenLoop::poisson(rate, num_benchmarks, seed)),
        // On 1/4 of the time at 3x the average + a quiet floor.
        "bursty" => Box::new(OpenLoop::bursty(
            peak(3.0)?,
            rate / 3.0,
            PERIOD / 4,
            3 * PERIOD / 4,
            num_benchmarks,
            seed,
        )),
        "diurnal" => Box::new(OpenLoop::diurnal(rate, 0.8, PERIOD, num_benchmarks, seed)),
        "ramp" => Box::new(OpenLoop::ramp(
            0.2 * rate,
            peak(1.8)?,
            4 * PERIOD,
            num_benchmarks,
            seed,
        )),
        // A steady floor with a bursty overlay on an offset seed.
        "mix" => Box::new(Compose::new(vec![
            Box::new(OpenLoop::poisson(peak(0.5)?, num_benchmarks, seed)),
            Box::new(OpenLoop::bursty(
                peak(2.0)?,
                0.0,
                PERIOD / 4,
                3 * PERIOD / 4,
                num_benchmarks,
                seed ^ 0x9e37_79b9_7f4a_7c15,
            )),
        ])),
        unknown => {
            return Err(format!(
                "unknown process {unknown:?} (expected poisson|bursty|diurnal|ramp|mix)"
            ))
        }
    };
    Ok(Box::new(source.take(jobs)))
}

/// Serve one system from the stream.
fn serve(testbed: &Testbed, kind: SystemKind, options: &Options) -> Outcome {
    let spec = RunSpec {
        engine: EngineConfig {
            slo: options.policy(),
            ..EngineConfig::default()
        },
        ..RunSpec::default()
    };
    let stream = arrivals(
        &options.process,
        options.rate,
        testbed.suite.len(),
        options.seed,
        options.jobs,
    )
    .expect("validated before the run started");
    let simulator = Simulator::new(testbed.arch.num_cores());
    hetero_engine::run(&simulator, stream, &mut testbed.system(kind), &spec)
        .expect("a plain run binds nothing")
}

fn report_to_json(name: &str, report: &EngineReport) -> Json {
    Json::object([
        ("system", Json::str(name)),
        ("cores", Json::UInt(report.num_cores as u64)),
        ("horizon_cycles", Json::UInt(report.horizon)),
        ("arrivals", Json::UInt(report.totals.arrivals)),
        ("completions", Json::UInt(report.totals.completions)),
        (
            "throughput_jobs_per_mcycle",
            Json::Num(report.throughput_jobs_per_mcycle()),
        ),
        (
            "p50_latency_cycles",
            Json::UInt(report.latency_cycles.p50()),
        ),
        (
            "p99_latency_cycles",
            Json::UInt(report.latency_cycles.p99()),
        ),
        ("energy_nj", Json::Num(report.energy_nj())),
        ("energy_per_job_nj", Json::Num(report.energy_per_job_nj())),
        ("snapshots_emitted", Json::UInt(report.snapshots_emitted)),
        ("slo_passed", Json::Bool(report.slo.passed())),
        (
            "slo_checks",
            Json::Array(
                report
                    .slo
                    .checks
                    .iter()
                    .map(|check| {
                        Json::object([
                            ("name", Json::str(check.name)),
                            ("budget", Json::Num(check.budget)),
                            ("measured", Json::Num(check.measured)),
                            ("passed", Json::Bool(check.passed)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// `engine compare OLD.json NEW.json`: per-system deltas, non-zero exit
/// on regression (throughput down or p99/energy-per-job up by > 5%).
fn compare(old_path: &str, new_path: &str) -> ExitCode {
    let load = |path: &str| -> Result<Json, String> {
        let text =
            std::fs::read_to_string(path).map_err(|err| format!("cannot read {path}: {err}"))?;
        Json::parse(&text).map_err(|err| format!("cannot parse {path}: {err}"))
    };
    let (old, new) = match (load(old_path), load(new_path)) {
        (Ok(old), Ok(new)) => (old, new),
        (old, new) => {
            for problem in [old.err(), new.err()].into_iter().flatten() {
                eprintln!("{problem}");
            }
            return ExitCode::FAILURE;
        }
    };

    let field = |doc: &Json, system: &str, key: &str| -> Option<f64> {
        let row = doc
            .get("systems")?
            .as_array()?
            .iter()
            .find(|row| row.get("system").and_then(Json::as_str) == Some(system))?
            .get(key)?
            .clone();
        match row {
            Json::Num(value) => Some(value),
            Json::UInt(value) => Some(value as f64),
            _ => None,
        }
    };

    // (json key, label, true when bigger is better)
    const METRICS: [(&str, &str, bool); 3] = [
        ("throughput_jobs_per_mcycle", "throughput", true),
        ("p99_latency_cycles", "p99 latency", false),
        ("energy_per_job_nj", "energy/job", false),
    ];
    const TOLERANCE: f64 = 0.05;

    println!(
        "{:<16} {:<12} {:>14} {:>14} {:>9}  verdict",
        "system", "metric", "old", "new", "delta"
    );
    let mut regressions = 0u32;
    let mut compared = 0u32;
    for system in SystemKind::ALL.map(SystemKind::name) {
        for (key, label, bigger_is_better) in METRICS {
            let (Some(before), Some(after)) = (field(&old, system, key), field(&new, system, key))
            else {
                continue;
            };
            compared += 1;
            let delta = if before == 0.0 {
                0.0
            } else {
                after / before - 1.0
            };
            let regressed = if bigger_is_better {
                delta < -TOLERANCE
            } else {
                delta > TOLERANCE
            };
            if regressed {
                regressions += 1;
            }
            println!(
                "{:<16} {:<12} {:>14.3} {:>14.3} {:>+8.1}%  {}",
                system,
                label,
                before,
                after,
                delta * 100.0,
                if regressed { "REGRESSED" } else { "ok" }
            );
        }
    }
    if compared == 0 {
        eprintln!("no comparable systems found in the two artifacts");
        return ExitCode::FAILURE;
    }
    if regressions > 0 {
        eprintln!("ENGINE COMPARE: {regressions} regression(s) beyond 5%");
        return ExitCode::FAILURE;
    }
    println!("ENGINE COMPARE OK: {compared} metric(s) within tolerance");
    ExitCode::SUCCESS
}

/// `engine --serve PORT` / `--perfetto PATH`: one system served through
/// the live observability plane — scrape endpoint polled at snapshot
/// boundaries while the run is hot, burn-rate alerting on the p99
/// budget, and (with `--perfetto`) causal spans written out as a
/// Chrome trace-event artifact.
fn observed_run(options: &Options) -> ExitCode {
    let testbed = if options.smoke {
        Testbed::small()
    } else {
        Testbed::paper()
    };
    let kind = options.kind().unwrap_or_else(|| {
        println!("(--serve/--perfetto observe one system; defaulting to proposed)");
        SystemKind::Proposed
    });
    let name = kind.name();
    let num_cores = testbed.arch.num_cores();
    let config = EngineConfig {
        slo: options.policy(),
        ..EngineConfig::default()
    };
    // The paging rule pages on sustained p99 burn against the CLI
    // budget; without `--slo-p99` a loose default keeps it quiet on
    // healthy runs while still exercising the alert path.
    let latency_budget = options.slo_p99.unwrap_or(5_000_000);
    let observe = ObserveConfig {
        rules: vec![BurnRateRule::paging("p99-latency", latency_budget)],
        assemble_spans: options.perfetto.is_some(),
        alert_tier_floor: None,
        serve_port: options.serve,
    };
    let mut plane = match ObservedSink::try_new(num_cores, &config, &observe, None) {
        Ok(plane) => plane,
        Err(err) => {
            eprintln!("ENGINE OBSERVED FAILED: {err}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(addr) = plane.serve_addr() {
        println!("scrape endpoint live on http://{addr} (/metrics /health /snapshot)");
    }
    let stream = arrivals(
        &options.process,
        options.rate,
        testbed.suite.len(),
        options.seed,
        options.jobs,
    )
    .expect("validated before the run started");
    let metrics =
        Simulator::new(num_cores).run_stream(stream, &mut testbed.system(kind), &mut plane);

    if options.serve.is_some() && !options.linger.is_zero() {
        println!(
            "run complete; serving the final state for another {:.1}s",
            options.linger.as_secs_f64()
        );
        let start = std::time::Instant::now();
        while start.elapsed() < options.linger {
            plane.poll_server();
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    let outcome = plane.finish(&config);
    let report = &outcome.report;

    let mut failures = 0u32;
    println!(
        "{name}: completed {} of {} jobs, {:.3} jobs/Mcyc, p99 {} cycles, SLO {}",
        report.totals.completions,
        options.jobs,
        report.throughput_jobs_per_mcycle(),
        report.latency_cycles.p99(),
        report.slo.verdict()
    );
    if metrics.jobs_completed != options.jobs as u64 {
        eprintln!(
            "  FAIL: completed {} of {} jobs",
            metrics.jobs_completed, options.jobs
        );
        failures += 1;
    }
    if !report.slo.passed() {
        failures += 1;
    }
    for rule in &outcome.alerts.rules {
        println!(
            "  alert {:<14} {:<8} fast burn {:.3} slow burn {:.3} (fired {} resolved {})",
            rule.name,
            rule.state.name(),
            rule.burn_rates.0,
            rule.burn_rates.1,
            outcome.alerts.fired,
            outcome.alerts.resolved,
        );
    }
    if options.serve.is_some() {
        let stats = outcome.serve_stats;
        println!(
            "  scrapes: {} served, {} not found, {} rejected",
            stats.served, stats.not_found, stats.rejected
        );
    }

    if let Some(path) = &options.perfetto {
        let spans = outcome.spans.as_ref().expect("spans were assembled");
        let doc = perfetto_document(spans, name, options.seed);
        match validate_perfetto(&doc) {
            Ok(summary) => match std::fs::write(path, doc.to_pretty()) {
                Ok(()) => println!(
                    "wrote {path}: {} track names, {} spans, {} marks, horizon {} us",
                    summary.metadata, summary.durations, summary.instants, summary.max_ts
                ),
                Err(err) => {
                    eprintln!("  FAIL: writing {path}: {err}");
                    failures += 1;
                }
            },
            Err(problem) => {
                eprintln!("  FAIL: perfetto document invalid: {problem}");
                failures += 1;
            }
        }
    }

    if failures > 0 {
        eprintln!("ENGINE OBSERVED FAILED: {failures} problem(s)");
        return ExitCode::FAILURE;
    }
    println!("ENGINE OBSERVED OK: {name} served with the observability plane attached");
    ExitCode::SUCCESS
}

/// `engine --serve-smoke`: scrape all three endpoints from concurrent
/// client threads while a short small-testbed run is live, then
/// round-trip the Perfetto artifact through the in-repo JSON parser.
/// The cheap CI proof that the plane answers *during* a run.
fn serve_smoke() -> ExitCode {
    use std::io::{Read as _, Write as _};

    let testbed = Testbed::small();
    let num_cores = testbed.arch.num_cores();
    let config = EngineConfig {
        window_cycles: 100_000,
        snapshot_windows: 4,
        max_snapshots: 32,
        slo: SloPolicy::default(),
    };
    let observe = ObserveConfig {
        rules: vec![BurnRateRule::paging("p99-latency", 10_000_000)],
        assemble_spans: true,
        alert_tier_floor: None,
        serve_port: Some(0),
    };
    let mut plane = ObservedSink::new(num_cores, &config, &observe, None);
    let addr = plane.serve_addr().expect("bind an ephemeral loopback port");
    println!("serve smoke: scraping http://{addr} during a live small-testbed run");

    // Each client retries until the poll loop answers it with a 200.
    let clients: Vec<(&str, std::thread::JoinHandle<String>)> =
        ["/metrics", "/health", "/snapshot"]
            .into_iter()
            .map(|path| {
                let handle = std::thread::spawn(move || loop {
                    if let Ok(mut stream) = std::net::TcpStream::connect(addr) {
                        let request = format!("GET {path} HTTP/1.1\r\nHost: smoke\r\n\r\n");
                        if stream.write_all(request.as_bytes()).is_ok() {
                            let mut out = String::new();
                            if stream.read_to_string(&mut out).is_ok()
                                && out.starts_with("HTTP/1.1 200")
                            {
                                return out;
                            }
                        }
                    }
                    std::thread::sleep(Duration::from_millis(2));
                });
                (path, handle)
            })
            .collect();

    let jobs = 2_000usize;
    let stream = arrivals(
        "poisson",
        7.1,
        testbed.suite.len(),
        hetero_bench::PAPER_SEED,
        jobs,
    )
    .expect("poisson is a valid process");
    let mut system = testbed.system(SystemKind::Proposed);
    let metrics = Simulator::new(num_cores).run_stream(stream, &mut system, &mut plane);

    // Drain scrapes the in-run boundary polls did not catch.
    for _ in 0..2_000 {
        if clients.iter().all(|(_, handle)| handle.is_finished()) {
            break;
        }
        plane.poll_server();
        std::thread::sleep(Duration::from_millis(2));
    }

    let mut failures = 0u32;
    for (path, handle) in clients {
        if !handle.is_finished() {
            eprintln!("  FAIL: {path} was never answered");
            failures += 1;
            continue;
        }
        let body = handle.join().expect("client thread");
        let expected: &[&str] = match path {
            "/metrics" => &["# TYPE", "sched_completions_total"],
            "/health" => &["\"status\"", "\"alerts\": ["],
            _ => &["\"emitted\""],
        };
        for marker in expected {
            if !body.contains(marker) {
                eprintln!("  FAIL: {path} response is missing {marker:?}");
                failures += 1;
            }
        }
    }

    let outcome = plane.finish(&config);
    if metrics.jobs_completed != jobs as u64 {
        eprintln!(
            "  FAIL: completed {} of {jobs} jobs",
            metrics.jobs_completed
        );
        failures += 1;
    }
    if outcome.serve_stats.served < 3 {
        eprintln!(
            "  FAIL: served {} scrapes, expected at least 3",
            outcome.serve_stats.served
        );
        failures += 1;
    }

    // Span conservation + the Perfetto schema and parser round-trip.
    let spans = outcome.spans.as_ref().expect("spans were assembled");
    if spans.arrivals() != jobs as u64 || spans.completed() != jobs as u64 || spans.open_jobs() != 0
    {
        eprintln!(
            "  FAIL: span books do not conserve jobs (arrivals {} completed {} open {})",
            spans.arrivals(),
            spans.completed(),
            spans.open_jobs()
        );
        failures += 1;
    }
    let doc = perfetto_document(spans, "proposed", hetero_bench::PAPER_SEED);
    match validate_perfetto(&doc) {
        Ok(direct) => match Json::parse(&doc.to_pretty()) {
            Ok(reparsed) => match validate_perfetto(&reparsed) {
                Ok(round_tripped) if round_tripped == direct => println!(
                    "  perfetto: {} track names, {} spans, {} marks round-trip clean",
                    direct.metadata, direct.durations, direct.instants
                ),
                Ok(_) => {
                    eprintln!("  FAIL: perfetto summary changed across the JSON round-trip");
                    failures += 1;
                }
                Err(problem) => {
                    eprintln!("  FAIL: reparsed perfetto document invalid: {problem}");
                    failures += 1;
                }
            },
            Err(problem) => {
                eprintln!("  FAIL: perfetto document does not reparse: {problem}");
                failures += 1;
            }
        },
        Err(problem) => {
            eprintln!("  FAIL: perfetto document invalid: {problem}");
            failures += 1;
        }
    }

    if failures > 0 {
        eprintln!("ENGINE SERVE SMOKE FAILED: {failures} problem(s)");
        return ExitCode::FAILURE;
    }
    println!(
        "ENGINE SERVE SMOKE OK: {} scrapes answered live, spans conserved, artifact round-trips",
        outcome.serve_stats.served
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, old, new] => compare(old, new),
            _ => {
                eprintln!("usage: engine compare OLD.json NEW.json");
                ExitCode::FAILURE
            }
        };
    }

    let options = match Options::parse(&args) {
        Ok(options) => options,
        Err(problem) => {
            eprintln!("{problem}");
            return ExitCode::FAILURE;
        }
    };
    if options.serve_smoke {
        return serve_smoke();
    }
    if options.serve.is_some() || options.perfetto.is_some() {
        return observed_run(&options);
    }

    println!(
        "engine: {} x {} jobs, {} arrivals at ~{} jobs/Mcycle, seed {}",
        options.system, options.jobs, options.process, options.rate, options.seed
    );
    let testbed = if options.smoke {
        Testbed::small()
    } else {
        Testbed::paper()
    };

    let kinds = options
        .kind()
        .map_or(SystemKind::ALL.to_vec(), |kind| vec![kind]);
    let outcomes =
        hetero_parallel::map_indexed(kinds.len(), hetero_parallel::worker_count(), |i| {
            serve(&testbed, kinds[i], &options)
        });

    let mut failures = 0u32;
    let mut rows: Vec<Json> = Vec::new();
    let mut markdown = String::new();
    println!(
        "{:<16} {:>9} {:>11} {:>11} {:>12} {:>10} {:>6}",
        "system", "completed", "jobs/Mcyc", "p99 (cyc)", "energy/job", "snapshots", "SLO"
    );
    for (kind, outcome) in kinds.iter().zip(&outcomes) {
        let name = kind.name();
        let report = &outcome.report;
        if outcome.metrics.jobs_completed != options.jobs as u64 {
            eprintln!(
                "  {name}: completed {} of {} jobs",
                outcome.metrics.jobs_completed, options.jobs
            );
            failures += 1;
        }
        if !report.slo.passed() {
            failures += 1;
        }
        println!(
            "{:<16} {:>9} {:>11.3} {:>11} {:>12.3} {:>10} {:>6}",
            name,
            report.totals.completions,
            report.throughput_jobs_per_mcycle(),
            report.latency_cycles.p99(),
            report.energy_per_job_nj(),
            report.snapshots_emitted,
            report.slo.verdict()
        );
        if options.csv {
            println!("\n--- {name} snapshots ---");
            print!("{}", export::snapshots_csv(report));
        }
        if options.md {
            markdown.push_str(&export::summary_markdown(
                &format!("{} / {}", options.process, name),
                report,
            ));
            markdown.push('\n');
        }
        rows.push(report_to_json(name, report));
    }
    if options.md {
        print!("\n{markdown}");
    }

    if let Some(path) = &options.export {
        let doc = Json::object([
            ("experiment", Json::str("engine")),
            ("process", Json::str(options.process.clone())),
            ("rate_jobs_per_mcycle", Json::Num(options.rate)),
            ("jobs", Json::UInt(options.jobs as u64)),
            ("seed", Json::UInt(options.seed)),
            ("systems", Json::Array(rows)),
        ]);
        match std::fs::write(path, doc.to_pretty()) {
            Ok(()) => println!("wrote {path}"),
            Err(err) => {
                eprintln!("export to {path} failed: {err}");
                failures += 1;
            }
        }
    }

    if failures > 0 {
        eprintln!("ENGINE FAILED: {failures} problem(s)");
        return ExitCode::FAILURE;
    }
    println!(
        "ENGINE OK: {} system(s) served {} streamed jobs in bounded memory",
        kinds.len(),
        options.jobs
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::Options;

    fn parse(args: &[&str]) -> Result<Options, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Options::parse(&args)
    }

    #[test]
    fn a_positive_finite_rate_is_accepted() {
        let options = parse(&["--smoke", "--rate", "2.5"]).expect("valid rate");
        assert_eq!(options.rate, 2.5);
    }

    #[test]
    fn a_non_positive_or_non_finite_rate_is_a_usage_error() {
        for bad in ["0", "-1", "nan", "inf"] {
            let problem = parse(&["--smoke", "--rate", bad])
                .err()
                .unwrap_or_else(|| panic!("--rate {bad} must be rejected"));
            assert!(problem.starts_with("--rate"), "{bad}: {problem}");
        }
        assert!(parse(&["--rate", "fast"]).is_err());
        assert!(parse(&["--rate"]).is_err());
    }

    #[test]
    fn a_rate_whose_scaled_peak_overflows_is_a_usage_error() {
        for process in ["bursty", "ramp", "mix"] {
            let problem = parse(&["--smoke", "--process", process, "--rate", "1e308"])
                .err()
                .unwrap_or_else(|| panic!("{process} at --rate 1e308 must be rejected"));
            assert!(problem.starts_with("--rate"), "{process}: {problem}");
        }
        // The unscaled processes carry the same rate.
        for process in ["poisson", "diurnal"] {
            parse(&["--smoke", "--process", process, "--rate", "1e308"])
                .unwrap_or_else(|problem| panic!("{process}: {problem}"));
        }
        assert!(parse(&["--process", "square"]).is_err());
    }

    #[test]
    fn a_negative_non_finite_or_overflowing_linger_is_a_usage_error() {
        for bad in ["-1", "nan", "inf", "1e300"] {
            let problem = parse(&["--smoke", "--linger", bad])
                .err()
                .unwrap_or_else(|| panic!("--linger {bad} must be rejected"));
            assert!(problem.starts_with("--linger"), "{bad}: {problem}");
        }
        let options = parse(&["--smoke", "--linger", "1.5"]).expect("valid linger");
        assert_eq!(options.linger, std::time::Duration::from_millis(1_500));
        assert!(parse(&["--linger", "soon"]).is_err());
    }

    #[test]
    fn a_rate_whose_per_cycle_peak_underflows_is_a_usage_error() {
        for process in ["poisson", "bursty", "diurnal", "ramp", "mix"] {
            let problem = parse(&["--smoke", "--process", process, "--rate", "1e-320"])
                .err()
                .unwrap_or_else(|| panic!("{process} at --rate 1e-320 must be rejected"));
            assert!(problem.starts_with("--rate"), "{process}: {problem}");
            // A tiny normal rate still builds every process.
            parse(&["--smoke", "--process", process, "--rate", "1e-290"])
                .unwrap_or_else(|problem| panic!("{process}: {problem}"));
        }
        // At 3e-318 only mix's half-rate floor rounds to zero per cycle.
        parse(&["--smoke", "--process", "poisson", "--rate", "3e-318"]).expect("poisson");
        assert!(parse(&["--smoke", "--process", "mix", "--rate", "3e-318"]).is_err());
    }
}
