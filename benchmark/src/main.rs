//! Command line: run one workload, or compare two result directories.
//!
//! ```sh
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload paper --seed 20190325 --seconds 10 --trace 0
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     compare OLD_DIR NEW_DIR
//! ```

use hetero_bench::json::Json;
use hetero_benchmark::compare::{self, Status};
use hetero_benchmark::report;
use hetero_benchmark::run::{self, Options, Workload, DEFAULT_SEED};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: hetero-benchmark --workload <paper|manycore|storm|live> \
[--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
       hetero-benchmark compare OLD_DIR NEW_DIR";

fn parse(args: &[String]) -> Result<(Options, PathBuf), String> {
    let mut workload = None;
    let mut options = Options {
        workload: Workload::Paper,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        traced: false,
        smoke: false,
    };
    let mut seconds = None;
    let mut out = PathBuf::from("target/benchmark");
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let parsed: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&parsed) {
                    return Err(format!("--seconds {parsed} is out of range"));
                }
                seconds = Some(parsed);
            }
            "--trace" => {
                options.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => options.smoke = true,
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    options.workload = workload.ok_or("--workload is required")?;
    // Smoke runs do the minimum number of reps unless told otherwise.
    options.seconds = seconds.unwrap_or(if options.smoke { 0.0 } else { 10.0 });
    Ok((options, out))
}

fn compare_main(args: &[String]) -> ExitCode {
    let [old, new] = args else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e}"))
        .and_then(|text| Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}")))
        .and_then(|doc| compare::bounds(&doc))
        .and_then(|bounds| compare::compare(&bounds, Path::new(old), Path::new(new)));
    match result {
        Ok((rows, worst)) => {
            for row in rows {
                println!("{row}");
            }
            if worst == Status::Regressed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(error) => {
            eprintln!("compare: {error}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare_main(&args[1..]);
    }
    let (options, out) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(error) => {
            eprintln!("{error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // One worker thread for every parallel stage, so no number depends on
    // a second vCPU being free (on a 2-vCPU host, two threads halve the
    // paper set-up but share the vCPU with `live`'s scrape client and
    // whatever else runs). Set before any thread exists.
    std::env::set_var("HETERO_THREADS", "1");
    let report = run::run(&options);
    match report::write(&report, &out) {
        Ok(()) => eprintln!("wrote {}", report::results_path(&out, &report).display()),
        Err(error) => eprintln!("could not write results under {}: {error}", out.display()),
    }
    report::print(&report);
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
