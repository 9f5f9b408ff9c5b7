//! Wall-clock measurement helpers for the `perf_pipeline` regression-guard
//! binary, and the provenance every perf artifact records.
//!
//! Std-only probes (the build is offline, so no criterion): warm-up,
//! repeated timed runs, and `std::hint::black_box` to keep the optimiser
//! honest. Per-iteration timings feed a
//! [`hetero_telemetry::Histogram`], so every [`Sample`] carries tail
//! percentiles alongside the mean and the exact minimum (the gate
//! statistic).

use crate::json::Json;
use hetero_telemetry::Histogram;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// One measured quantity.
#[derive(Debug, Clone)]
pub struct Sample {
    /// What was measured.
    pub label: String,
    /// Timed iterations (after one warm-up iteration).
    pub iters: u32,
    /// Mean wall-clock per iteration in nanoseconds.
    pub mean_ns: f64,
    /// Fastest iteration in nanoseconds (exact).
    pub min_ns: f64,
    /// Median iteration in nanoseconds (log-linear estimate, ≤ ~3.1 %
    /// relative error).
    pub p50_ns: f64,
    /// 95th-percentile iteration in nanoseconds (same error bound).
    pub p95_ns: f64,
}

impl Sample {
    /// Mean wall-clock per iteration in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        self.mean_ns / 1e6
    }
}

/// Per-iteration timing accumulator: one histogram observation per run,
/// with the mean/min/percentiles distilled into a [`Sample`].
struct Timings {
    hist: Histogram,
}

impl Timings {
    fn new() -> Self {
        Timings {
            hist: Histogram::new(),
        }
    }

    #[inline]
    fn push(&mut self, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.hist.record(ns);
    }

    fn sample(&self, label: &str, iters: u32) -> Sample {
        Sample {
            label: label.to_owned(),
            iters,
            mean_ns: self.hist.mean(),
            min_ns: self.hist.min() as f64,
            p50_ns: self.hist.p50() as f64,
            p95_ns: self.hist.p95() as f64,
        }
    }
}

/// Run `f` once (result observed) and return the elapsed wall-clock.
pub fn time_once<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let result = black_box(f());
    (result, start.elapsed())
}

/// Measure `f` over `iters` timed iterations after one warm-up iteration.
///
/// # Panics
///
/// Panics if `iters == 0`.
pub fn bench<R>(label: &str, iters: u32, mut f: impl FnMut() -> R) -> Sample {
    assert!(iters > 0, "need at least one iteration");
    black_box(f()); // warm-up
    let mut timings = Timings::new();
    for _ in 0..iters {
        let start = Instant::now();
        black_box(f());
        timings.push(start.elapsed());
    }
    timings.sample(label, iters)
}

/// Measure two alternatives over interleaved iterations (`a`, `b`, `a`,
/// `b`, …) after one warm-up call of each.
///
/// A ratio of two [`bench`] results is only as stable as the host: when
/// its effective speed drifts (frequency scaling, steal time on shared
/// machines), the phase measured second sees a different regime and the
/// ratio absorbs the difference. Pairing exposes both alternatives to
/// the same regime in every round, so `min`/`min` and `mean`/`mean`
/// ratios cancel the drift.
///
/// # Panics
///
/// Panics if `iters == 0`.
pub fn bench_paired<RA, RB>(
    label_a: &str,
    mut a: impl FnMut() -> RA,
    label_b: &str,
    mut b: impl FnMut() -> RB,
    iters: u32,
) -> (Sample, Sample) {
    assert!(iters > 0, "need at least one iteration");
    black_box(a()); // warm-up
    black_box(b());
    let mut timings = [Timings::new(), Timings::new()];
    for _ in 0..iters {
        let start = Instant::now();
        black_box(a());
        timings[0].push(start.elapsed());

        let start = Instant::now();
        black_box(b());
        timings[1].push(start.elapsed());
    }
    (
        timings[0].sample(label_a, iters),
        timings[1].sample(label_b, iters),
    )
}

/// Where a perf artifact was measured, as top-level JSON fields: the
/// checked-out commit (`git_rev`, read from `.git` in the working
/// directory; uncommitted edits are not reflected), the build profile
/// and the host's `available_parallelism`.
pub fn provenance() -> [(&'static str, Json); 3] {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    [
        ("git_rev", Json::str(git_rev())),
        ("build_profile", Json::str(profile)),
        ("host_parallelism", Json::UInt(parallelism as u64)),
    ]
}

/// The commit `HEAD` names, read from `.git` without running git
/// (`"unknown"` outside a git checkout).
fn git_rev() -> String {
    let git = Path::new(".git");
    let read = |path: &Path| std::fs::read_to_string(path).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&git.join(reference)) {
        return rev.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_counts_iterations_and_orders_stats() {
        let mut calls = 0u32;
        let sample = bench("probe", 5, || {
            calls += 1;
            std::thread::sleep(Duration::from_micros(50));
        });
        assert_eq!(calls, 6, "warm-up plus timed iterations");
        assert_eq!(sample.iters, 5);
        assert!(sample.min_ns <= sample.mean_ns);
        assert!(sample.mean_ns > 0.0);
        // Percentile estimates bracket the distribution: never below the
        // minimum, the tail at or above the median.
        assert!(sample.p50_ns >= sample.min_ns);
        assert!(sample.p95_ns >= sample.p50_ns);
    }

    #[test]
    fn paired_samples_carry_percentiles() {
        let (a, b) = bench_paired(
            "a",
            || std::thread::sleep(Duration::from_micros(30)),
            "b",
            || std::thread::sleep(Duration::from_micros(30)),
            4,
        );
        for sample in [a, b] {
            assert!(sample.min_ns > 0.0);
            assert!(sample.p95_ns >= sample.p50_ns);
            assert!(sample.p50_ns >= sample.min_ns);
        }
    }

    #[test]
    fn provenance_names_rev_profile_and_parallelism() {
        let fields = provenance();
        let names: Vec<&str> = fields.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, ["git_rev", "build_profile", "host_parallelism"]);
        assert!(matches!(fields[2].1, Json::UInt(n) if n >= 1));
    }

    #[test]
    fn time_once_returns_the_result() {
        let (value, elapsed) = time_once(|| 6 * 7);
        assert_eq!(value, 42);
        assert!(elapsed.as_nanos() > 0);
    }
}
