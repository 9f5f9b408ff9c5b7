//! Machine-readable result artifacts.
//!
//! Every experiment binary can persist its runs as JSON under `results/`,
//! so downstream tooling (plots, regression checks across commits) never
//! has to scrape stdout. Serialisation is hand-rolled through
//! [`Json`] because the build environment is offline
//! (no serde).

use crate::json::Json;
use crate::{Comparison, SystemRun};
use std::path::Path;

/// Serializable mirror of one system's outcome.
#[derive(Debug, Clone)]
pub struct SystemRecord {
    /// System name (`base`, `optimal`, `energy-centric`, `proposed`).
    pub system: String,
    /// Idle-core leakage energy in nanojoules.
    pub idle_nj: f64,
    /// Dynamic energy in nanojoules.
    pub dynamic_nj: f64,
    /// Busy-core leakage energy in nanojoules.
    pub static_nj: f64,
    /// Total energy in nanojoules.
    pub total_nj: f64,
    /// Makespan in cycles.
    pub total_cycles: u64,
    /// Aggregate execution work in cycles.
    pub work_cycles: u64,
    /// Mean job turnaround in cycles.
    pub mean_turnaround: f64,
    /// Distinct per-job stall episodes.
    pub stalls: u64,
    /// Raw declined scheduling offers (>= `stalls`; a job re-offered
    /// across several passes counts once per pass here).
    pub stall_offers: u64,
    /// Profiling executions performed.
    pub profiling_runs: u64,
    /// Energy of profiling executions in nanojoules.
    pub profiling_energy_nj: f64,
    /// Executions whose configuration came from the tuning explorer.
    pub tuning_runs: u64,
    /// Section IV.E decisions evaluated.
    pub decisions_evaluated: u64,
    /// Decisions that borrowed a non-best core.
    pub decisions_ran_non_best: u64,
}

impl SystemRecord {
    fn from_run(name: &str, run: &SystemRun) -> Self {
        SystemRecord {
            system: name.to_owned(),
            idle_nj: run.metrics.energy.idle_nj,
            dynamic_nj: run.metrics.energy.dynamic_nj,
            static_nj: run.metrics.energy.static_nj,
            total_nj: run.metrics.energy.total(),
            total_cycles: run.metrics.total_cycles,
            work_cycles: run.metrics.busy_cycles.iter().sum(),
            mean_turnaround: run.metrics.mean_turnaround(),
            stalls: run.metrics.stalls,
            stall_offers: run.metrics.stall_offers,
            profiling_runs: run.stats.profiling_runs,
            profiling_energy_nj: run.stats.profiling_energy_nj,
            tuning_runs: run.stats.tuning_runs,
            decisions_evaluated: run.stats.decisions_evaluated,
            decisions_ran_non_best: run.stats.decisions_ran_non_best,
        }
    }

    fn to_json(&self) -> Json {
        Json::object([
            ("system", Json::str(&self.system)),
            ("idle_nj", Json::Num(self.idle_nj)),
            ("dynamic_nj", Json::Num(self.dynamic_nj)),
            ("static_nj", Json::Num(self.static_nj)),
            ("total_nj", Json::Num(self.total_nj)),
            ("total_cycles", Json::UInt(self.total_cycles)),
            ("work_cycles", Json::UInt(self.work_cycles)),
            ("mean_turnaround", Json::Num(self.mean_turnaround)),
            ("stalls", Json::UInt(self.stalls)),
            ("stall_offers", Json::UInt(self.stall_offers)),
            ("profiling_runs", Json::UInt(self.profiling_runs)),
            ("profiling_energy_nj", Json::Num(self.profiling_energy_nj)),
            ("tuning_runs", Json::UInt(self.tuning_runs)),
            ("decisions_evaluated", Json::UInt(self.decisions_evaluated)),
            (
                "decisions_ran_non_best",
                Json::UInt(self.decisions_ran_non_best),
            ),
        ])
    }
}

/// One experiment's result file.
#[derive(Debug, Clone)]
pub struct ExperimentRecord {
    /// Experiment identifier (e.g. `figure6`).
    pub experiment: String,
    /// Number of arrivals.
    pub jobs: usize,
    /// Arrival horizon in cycles.
    pub horizon: u64,
    /// Arrival-plan seed.
    pub seed: u64,
    /// Per-system outcomes.
    pub systems: Vec<SystemRecord>,
}

impl ExperimentRecord {
    /// Assemble a record from a four-system comparison.
    pub fn from_comparison(
        experiment: &str,
        jobs: usize,
        horizon: u64,
        seed: u64,
        comparison: &Comparison,
    ) -> Self {
        ExperimentRecord {
            experiment: experiment.to_owned(),
            jobs,
            horizon,
            seed,
            systems: comparison
                .iter()
                .map(|(name, run)| SystemRecord::from_run(name, run))
                .collect(),
        }
    }

    /// The record as a JSON document.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("experiment", Json::str(&self.experiment)),
            ("jobs", Json::UInt(self.jobs as u64)),
            ("horizon", Json::UInt(self.horizon)),
            ("seed", Json::UInt(self.seed)),
            (
                "systems",
                Json::Array(self.systems.iter().map(SystemRecord::to_json).collect()),
            ),
        ])
    }

    /// Write the record as pretty JSON under `results/<experiment>.json`
    /// (creating the directory), returning the path written.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_default(&self) -> std::io::Result<std::path::PathBuf> {
        let dir = Path::new("results");
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.experiment));
        self.write_to(&path)?;
        Ok(path)
    }

    /// Write the record as pretty JSON to an explicit path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().to_pretty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Testbed;

    #[test]
    fn record_serialises_all_four_systems() {
        let testbed = Testbed::small();
        let plan = testbed.plan(60, 10_000_000, 5);
        let comparison = testbed.run_all(&plan);
        let record = ExperimentRecord::from_comparison("unit_test", 60, 10_000_000, 5, &comparison);
        let json = record.to_json().to_pretty();
        assert!(json.contains("\"experiment\": \"unit_test\""), "{json}");
        for system in ["base", "optimal", "energy-centric", "proposed"] {
            assert!(
                json.contains(&format!("\"system\": \"{system}\"")),
                "{json}"
            );
        }
        assert_eq!(json.matches("\"total_nj\"").count(), 4);
    }

    #[test]
    fn write_to_creates_the_file() {
        let testbed = Testbed::small();
        let plan = testbed.plan(30, 8_000_000, 6);
        let comparison = testbed.run_all(&plan);
        let record = ExperimentRecord::from_comparison("tmp_probe", 30, 8_000_000, 6, &comparison);
        let dir = std::env::temp_dir().join("hetero_sched_report_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("probe.json");
        record.write_to(&path).expect("writable");
        let content = std::fs::read_to_string(&path).expect("readable");
        assert!(content.contains("tmp_probe"));
        let _ = std::fs::remove_file(&path);
    }
}
