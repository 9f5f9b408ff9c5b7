//! Plain-text exporters for an [`EngineReport`]: a snapshot time series
//! as CSV and a run summary as markdown. The `engine` bin in
//! `hetero-bench` layers its JSON artifact (and `engine compare`) on top
//! of these.

use crate::engine::EngineReport;
use std::fmt::Write as _;

/// Column header of [`snapshots_csv`].
pub const CSV_HEADER: &str = "index,start,end,arrivals,completions,throughput_jobs_per_mcycle,\
     p50_latency_cycles,p99_latency_cycles,energy_nj,energy_per_job_nj,mean_utilisation,\
     ready_depth,stall_offers,evictions,faults,retries,\
     cumulative_completions,cumulative_p99_latency_cycles,cumulative_energy_per_job_nj";

/// The retained snapshot ring as CSV, one row per snapshot, oldest
/// first, with a trailing newline.
pub fn snapshots_csv(report: &EngineReport) -> String {
    let mut out = String::with_capacity(128 * (report.snapshots.len() + 1));
    out.push_str(CSV_HEADER);
    out.push('\n');
    for snap in &report.snapshots {
        writeln!(
            out,
            "{},{},{},{},{},{:.6},{},{},{:.3},{:.3},{:.6},{},{},{},{},{},{},{},{:.3}",
            snap.index,
            snap.start,
            snap.end,
            snap.arrivals,
            snap.completions,
            snap.throughput_jobs_per_mcycle(),
            snap.p50_latency_cycles,
            snap.p99_latency_cycles,
            snap.energy_nj,
            snap.energy_per_job_nj(),
            snap.mean_utilisation,
            snap.ready_depth,
            snap.stall_offers,
            snap.evictions,
            snap.faults,
            snap.retries,
            snap.cumulative_completions,
            snap.cumulative_p99_latency_cycles,
            snap.cumulative_energy_per_job_nj,
        )
        .expect("writing to a String cannot fail");
    }
    out
}

/// A run summary as a markdown fragment: cumulative statistics, the SLO
/// verdict table, and the tail of the snapshot ring.
pub fn summary_markdown(name: &str, report: &EngineReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "### {name}");
    let _ = writeln!(out);
    let _ = writeln!(out, "| metric | value |");
    let _ = writeln!(out, "|---|---|");
    let _ = writeln!(out, "| cores | {} |", report.num_cores);
    let _ = writeln!(out, "| horizon (cycles) | {} |", report.horizon);
    let _ = writeln!(out, "| arrivals | {} |", report.totals.arrivals);
    let _ = writeln!(out, "| completions | {} |", report.totals.completions);
    let _ = writeln!(
        out,
        "| throughput (jobs/Mcycle) | {:.3} |",
        report.throughput_jobs_per_mcycle()
    );
    let _ = writeln!(
        out,
        "| p50 / p99 latency (cycles) | {} / {} |",
        report.latency_cycles.p50(),
        report.latency_cycles.p99()
    );
    let _ = writeln!(out, "| energy (nJ) | {:.1} |", report.energy_nj());
    let _ = writeln!(
        out,
        "| energy per job (nJ) | {:.3} |",
        report.energy_per_job_nj()
    );
    let _ = writeln!(
        out,
        "| snapshots (kept / emitted) | {} / {} |",
        report.snapshots.len(),
        report.snapshots_emitted
    );
    if !report.slo.checks.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "| SLO check | budget | measured | verdict |");
        let _ = writeln!(out, "|---|---|---|---|");
        for check in &report.slo.checks {
            let _ = writeln!(
                out,
                "| {} | {:.3} | {:.3} | {} |",
                check.name,
                check.budget,
                check.measured,
                if check.passed { "pass" } else { "FAIL" }
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "**SLO: {}**", report.slo.verdict());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::slo::SloPolicy;
    use crate::RunSpec;
    use energy_model::EnergyBreakdown;
    use multicore_sim::{CoreIndex, Decision, Job, JobExecution, Scheduler, Simulator};
    use workloads::OpenLoop;

    struct FirstIdle;

    impl Scheduler for FirstIdle {
        fn schedule(&mut self, job: &Job, cores: &CoreIndex, _now: u64) -> Decision {
            match cores.first_idle() {
                Some(core) => Decision::run(
                    core,
                    JobExecution {
                        cycles: 40 + 17 * (job.benchmark.0 as u64 % 5),
                        energy: EnergyBreakdown {
                            idle_nj: 0.0,
                            dynamic_nj: 1.0,
                            static_nj: 0.5,
                        },
                    },
                ),
                None => Decision::Stall,
            }
        }

        fn idle_power_nj_per_cycle(&self, _core: multicore_sim::CoreId) -> f64 {
            1.0
        }
    }

    fn sample_report() -> crate::engine::EngineReport {
        let config = EngineConfig {
            window_cycles: 10_000,
            snapshot_windows: 5,
            max_snapshots: 64,
            slo: SloPolicy {
                max_p99_latency_cycles: Some(u64::MAX),
                max_energy_per_job_nj: None,
                min_throughput_jobs_per_mcycle: None,
            },
        };
        let spec = RunSpec {
            engine: config,
            ..RunSpec::default()
        };
        crate::run(
            &Simulator::new(4),
            OpenLoop::poisson(20.0, 20, 11).take(1_500),
            &mut FirstIdle,
            &spec,
        )
        .expect("a plain run cannot fail")
        .report
    }

    #[test]
    fn csv_has_one_row_per_snapshot_and_a_stable_header() {
        let report = sample_report();
        let csv = snapshots_csv(&report);
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some(CSV_HEADER));
        assert_eq!(lines.count(), report.snapshots.len());
        let columns = CSV_HEADER.split(',').count();
        for line in csv.lines().skip(1) {
            assert_eq!(line.split(',').count(), columns, "ragged row: {line}");
        }
    }

    #[test]
    fn markdown_summarises_totals_and_the_slo_verdict() {
        let report = sample_report();
        let md = summary_markdown("poisson/base", &report);
        assert!(md.contains("### poisson/base"));
        assert!(md.contains(&format!("| completions | {} |", report.totals.completions)));
        assert!(md.contains("p99_latency_cycles"));
        assert!(md.contains("**SLO: PASS**"));
    }
}
