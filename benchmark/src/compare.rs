//! `compare OLD_DIR NEW_DIR`: judge two sets of untraced results against
//! the bounds in `BENCHMARK.json`, one row per workload.
//!
//! Per (end-to-end metric, workload) each side is the median of its runs'
//! values (one results file per run; a single file falls back to its own
//! rep quartiles). A side whose quartile spread is wider than the bound
//! cannot resolve a change of that size: the pair is *unresolved*, unless
//! every new run reads better than every old one.

use crate::stats;
use hetero_bench::json::Json;
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// A metric's regression rule from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `true` when lower values are better.
    pub lower_is_better: bool,
    /// Share of the old median by which the metric may get worse.
    pub bound: f64,
}

/// Verdict on one pair, or on a workload's row (its worst pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Status {
    /// Within the bound either way.
    Unchanged,
    /// Better by more than the bound.
    Improved,
    /// A side's own spread is wider than the bound.
    Unresolved,
    /// Worse by more than the bound.
    Regressed,
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Status::Unchanged => "unchanged",
            Status::Improved => "improved",
            Status::Unresolved => "unresolved",
            Status::Regressed => "regressed",
        })
    }
}

fn number(json: &Json) -> Option<f64> {
    match json {
        Json::Num(value) => Some(*value),
        Json::UInt(value) => Some(*value as f64),
        _ => None,
    }
}

/// The `end_to_end` entries of a `BENCHMARK.json` document.
pub fn bounds(doc: &Json) -> Result<Vec<Bound>, String> {
    let entries = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    entries
        .iter()
        .map(|entry| {
            let field = |key: &str| {
                entry
                    .get(key)
                    .ok_or(format!("end_to_end entry lacks {key}"))
            };
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .to_string(),
                unit: field("unit")?
                    .as_str()
                    .ok_or("unit is not a string")?
                    .to_string(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: number(field("bound")?).ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// One side's samples of a (workload, metric) pair.
#[derive(Debug, Clone, Default)]
struct Side {
    /// One value per results file.
    runs: Vec<f64>,
    /// The single file's rep quartiles, when there is one file.
    quartiles: (f64, f64),
}

impl Side {
    /// Median and relative quartile spread.
    fn summary(&self) -> (f64, f64) {
        let mut runs = self.runs.clone();
        let median = stats::median(&mut runs);
        let (q1, q3) = if runs.len() > 1 {
            stats::quartiles(&mut runs)
        } else {
            self.quartiles
        };
        let spread = if median == 0.0 {
            0.0
        } else {
            (q3 - q1) / median.abs()
        };
        (median, spread)
    }
}

type Sides = BTreeMap<String, BTreeMap<String, Side>>;

/// Read every untraced results file in `dir`: workload -> metric -> side.
fn load(dir: &Path) -> Result<Sides, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut sides = Sides::new();
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if !name.ends_with(".json")
            || name.ends_with(".traced.json")
            || name.ends_with(".trace.json")
        {
            continue;
        }
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{name}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{name}: {e}"))?;
        let (Some(workload), Some(Json::Object(metrics))) = (
            doc.get("workload").and_then(Json::as_str),
            doc.get("metrics"),
        ) else {
            continue;
        };
        for (metric, fields) in metrics {
            let field = |key: &str| fields.get(key).and_then(number);
            let Some(value) = field("value") else {
                continue;
            };
            let side = sides
                .entry(workload.to_string())
                .or_default()
                .entry(metric.clone())
                .or_default();
            side.runs.push(value);
            side.quartiles = (field("q1").unwrap_or(value), field("q3").unwrap_or(value));
        }
    }
    Ok(sides)
}

/// Judge one pair; returns the status and the signed relative change
/// (positive = worse).
fn judge(bound: &Bound, old: &Side, new: &Side) -> (Status, f64) {
    let (old_median, old_spread) = old.summary();
    let (new_median, new_spread) = new.summary();
    let change = if old_median == 0.0 {
        0.0
    } else {
        (new_median - old_median) / old_median.abs()
    };
    let worse = if bound.lower_is_better {
        change
    } else {
        -change
    };
    let better = |a: f64, b: f64| if bound.lower_is_better { a < b } else { a > b };
    let all_better = new
        .runs
        .iter()
        .all(|&n| old.runs.iter().all(|&o| better(n, o)));
    let status = if old_spread > bound.bound || new_spread > bound.bound {
        if all_better && worse < 0.0 {
            Status::Improved
        } else {
            Status::Unresolved
        }
    } else if worse > bound.bound {
        Status::Regressed
    } else if -worse > bound.bound {
        Status::Improved
    } else {
        Status::Unchanged
    };
    (status, worse)
}

/// Compare two result directories; returns one line per workload and the
/// worst status seen.
pub fn compare(bounds: &[Bound], old: &Path, new: &Path) -> Result<(Vec<String>, Status), String> {
    let old = load(old)?;
    let new = load(new)?;
    let mut rows = Vec::new();
    let mut worst = Status::Unchanged;
    for (workload, old_metrics) in &old {
        let Some(new_metrics) = new.get(workload) else {
            continue;
        };
        let mut row_status = Status::Unchanged;
        let mut cells = Vec::new();
        for bound in bounds {
            let (Some(o), Some(n)) = (old_metrics.get(&bound.name), new_metrics.get(&bound.name))
            else {
                continue;
            };
            let (status, worse) = judge(bound, o, n);
            row_status = row_status.max(status);
            cells.push(format!("{} {:+.2}% {status}", bound.name, worse * 100.0));
        }
        worst = worst.max(row_status);
        rows.push(format!(
            "{workload:<9} {row_status:<10} (worse +, better -) {}",
            cells.join(", ")
        ));
    }
    Ok((rows, worst))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(lower_is_better: bool) -> Bound {
        Bound {
            name: "m".to_string(),
            unit: "s".to_string(),
            lower_is_better,
            bound: 0.1,
        }
    }

    fn side(runs: &[f64]) -> Side {
        Side {
            runs: runs.to_vec(),
            quartiles: (runs[0], runs[0]),
        }
    }

    #[test]
    fn judges_by_bound_direction_and_spread() {
        let old = side(&[10.0, 10.1, 9.9, 10.0, 10.05]);
        let slower = side(&[11.5, 11.6, 11.4, 11.5, 11.55]);
        assert_eq!(judge(&bound(true), &old, &slower).0, Status::Regressed);
        assert_eq!(judge(&bound(false), &old, &slower).0, Status::Improved);
        let same = side(&[10.02, 9.98, 10.0, 10.01, 9.99]);
        assert_eq!(judge(&bound(true), &old, &same).0, Status::Unchanged);
        let noisy = side(&[8.0, 12.0, 9.0, 13.0, 10.0]);
        assert_eq!(judge(&bound(true), &old, &noisy).0, Status::Unresolved);
        let noisy_but_all_better = side(&[5.0, 7.5, 6.0, 9.0, 5.5]);
        assert_eq!(
            judge(&bound(true), &old, &noisy_but_all_better).0,
            Status::Improved
        );
    }
}
