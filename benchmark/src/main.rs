//! The repo benchmark. One run = one workload, one seed:
//!
//! ```text
//! ccdb-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ccdb-benchmark --aa <sets> <runs> [--seconds <s>]
//! ```
//!
//! The last line of stdout is the result object the driver reads; see
//! `README.md` beside this crate for what every number means.

mod aa;
mod alloc;
mod corpus;
mod host;
mod measure;
mod ops;
mod replay;
mod rng;
mod run;
mod spec;
#[cfg(test)]
mod tests;
mod trace;
mod wire;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ops::Workload;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str =
    "usage: ccdb-benchmark --workload <hot_read|extent_scan|propagate|txn_checkout> \
                     --seed <n> [--seconds <s>] [--trace <0|1>] [--out <dir>]\n       \
                     ccdb-benchmark --aa <sets> <runs> [--seconds <s>]";

enum Mode {
    Run(run::Config),
    Aa {
        sets: usize,
        runs: usize,
        seconds: f64,
    },
}

/// Trace files go under the benchmark's own directory whether the command
/// is run from the repo root (the driver) or from `benchmark/`.
fn default_out_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 15.0;
    let mut trace = false;
    let mut out_dir = default_out_dir();
    let mut aa = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => out_dir = PathBuf::from(value()?),
            "--aa" => {
                let sets = value()?
                    .parse::<usize>()
                    .map_err(|e| format!("--aa sets: {e}"))?;
                let runs = value()?
                    .parse::<usize>()
                    .map_err(|e| format!("--aa runs: {e}"))?;
                if sets < 2 || runs < 2 {
                    return Err("--aa needs at least 2 sets of at least 2 runs".into());
                }
                aa = Some((sets, runs));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some((sets, runs)) = aa {
        return Ok(Mode::Aa {
            sets,
            runs,
            seconds,
        });
    }
    Ok(Mode::Run(run::Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        shape: corpus::CAD_110K,
        out_dir,
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_args(&args) {
        Ok(mode) => mode,
        Err(why) => {
            eprintln!("ccdb-benchmark: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match mode {
        Mode::Run(cfg) => match run::run(&cfg) {
            Ok(report) => {
                println!(
                    "workload {} seed {} trace {}",
                    cfg.workload.name(),
                    cfg.seed,
                    cfg.trace as u8
                );
                for m in &report.metrics {
                    println!("{:<32} {:>16.4} {}", m.name, m.value, m.unit);
                }
                for note in &report.notes {
                    println!("# {note}");
                }
                println!(
                    "{}",
                    spec::result_line(
                        report.correct,
                        report.attempted,
                        report.failed,
                        &report.metrics
                    )
                );
                ExitCode::SUCCESS
            }
            Err(why) => {
                eprintln!("ccdb-benchmark: harness error: {why}");
                ExitCode::FAILURE
            }
        },
        Mode::Aa {
            sets,
            runs,
            seconds,
        } => match aa::run(sets, runs, seconds) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(why) => {
                eprintln!("ccdb-benchmark: harness error: {why}");
                ExitCode::from(2)
            }
        },
    }
}
