//! `perf`: the PEAS simulator's benchmark. Four workloads, end-to-end
//! metrics with regression bounds, and a traced run that attributes the
//! time to layers. `BENCHMARK.json` at the repository root defines the
//! workloads and metrics; `perf/README.md` explains them.
//!
//! ```text
//! perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! perf run [--workload NAME[,NAME...]] [--seed N] [--out PATH]
//! perf compare BASE.json NEW.json
//! ```
//!
//! The first form measures one workload in this process for about `S`
//! seconds (at least one job cycle) and prints one JSON result as the last
//! line of standard output: end-to-end metrics with `--trace 0`, per-layer
//! metrics from the traced run with `--trace 1`. `run` re-executes this
//! binary in that form once per repetition and once traced, one child at
//! a time, and writes `target/perf/run.json`. `compare` judges two such
//! files against each metric's bound.

mod layers;
mod measure;
mod spec;
mod stats;
mod suite;
mod trace;

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use crate::measure::Outcome;
use crate::spec::Workload;

const USAGE: &str = "\
usage:
  perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]
      measure one workload in this process; the last stdout line is the JSON result
  perf run [--workload NAME[,NAME...]] [--seed N] [--out PATH]
      every repetition of every workload in a child process, then one traced
      child each; writes target/perf/run.json unless --out says otherwise
  perf compare BASE.json NEW.json
      one verdict per workload and end-to-end metric; exit 1 on any `worse`

workloads: paper-480, scale-100k, scale-1m, sweep-cache";

/// Why a command stopped.
pub enum Cli {
    /// Bad arguments: the message and the usage, exit 2.
    Usage(String),
    /// Refused to run, exit 2.
    Refused(String),
    /// Ran and failed, exit 1.
    Failed(String),
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = spec::load() {
        eprintln!("perf: {e}");
        return ExitCode::FAILURE;
    }
    let result = match args.first().map(String::as_str) {
        Some("run") => release_only().and_then(|()| suite::run(&args[1..])),
        Some("compare") => suite::compare(&args[1..]),
        Some("help" | "--help" | "-h") => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some(_) => release_only().and_then(|()| measure_cmd(&args)),
        None => Err(Cli::Usage("no command given".to_string())),
    };
    match result {
        Ok(code) => code,
        Err(Cli::Usage(msg)) => {
            eprintln!("perf: {msg}\n\n{USAGE}");
            ExitCode::from(2)
        }
        Err(Cli::Refused(msg)) => {
            eprintln!("perf: {msg}");
            ExitCode::from(2)
        }
        Err(Cli::Failed(msg)) => {
            eprintln!("perf: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Timings from a debug build say nothing about the code users run.
fn release_only() -> Result<(), Cli> {
    if cfg!(debug_assertions) {
        Err(Cli::Refused(
            "refusing to measure a debug build; build with --release".to_string(),
        ))
    } else {
        Ok(())
    }
}

/// Where runs keep scratch files, traces and `run.json`: `perf/` under
/// Cargo's target directory.
pub fn scratch_dir() -> Result<PathBuf, Cli> {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let dir = target.join("perf");
    fs::create_dir_all(&dir)
        .map_err(|e| Cli::Failed(format!("creating {}: {e}", dir.display())))?;
    Ok(dir)
}

/// A metric value as JSON: Rust prints finite floats without exponents,
/// with every digit needed to read the same value back.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Takes the value after `flag` from `it`.
pub fn flag_value<'a>(
    flag: &str,
    it: &mut impl Iterator<Item = &'a String>,
) -> Result<&'a str, Cli> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| Cli::Usage(format!("{flag} needs a value")))
}

pub fn parse_seed(raw: &str) -> Result<u64, Cli> {
    raw.parse()
        .map_err(|_| Cli::Usage(format!("--seed takes a whole number, not `{raw}`")))
}

pub fn parse_workload(raw: &str) -> Result<&'static Workload, Cli> {
    spec::workload(raw).ok_or_else(|| Cli::Usage(format!("no workload named `{raw}`")))
}

struct MeasureArgs {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_measure(args: &[String]) -> Result<MeasureArgs, Cli> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 0.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = flag_value(flag, &mut it);
        match flag.as_str() {
            "--workload" => workload = Some(parse_workload(value?)?),
            "--seed" => seed = Some(parse_seed(value?)?),
            "--seconds" => {
                let raw = value?;
                seconds = raw
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| {
                        Cli::Usage(format!(
                            "--seconds takes a non-negative number, not `{raw}`"
                        ))
                    })?;
            }
            "--trace" => {
                trace = match value? {
                    "0" => false,
                    "1" => true,
                    raw => return Err(Cli::Usage(format!("--trace takes 0 or 1, not `{raw}`"))),
                }
            }
            other => return Err(Cli::Usage(format!("unknown argument `{other}`"))),
        }
    }
    let workload = workload.ok_or_else(|| Cli::Usage("--workload is required".to_string()))?;
    Ok(MeasureArgs {
        workload,
        seed: seed.unwrap_or(workload.default_seed),
        seconds,
        trace,
    })
}

fn measure_cmd(args: &[String]) -> Result<ExitCode, Cli> {
    let a = parse_measure(args)?;
    let scratch = scratch_dir()?;
    let out = if a.trace {
        let (out, spans) = layers::traced(a.workload, a.seed, &scratch);
        let path = scratch.join(format!("trace-{}.jsonl", a.workload.name));
        fs::write(&path, spans)
            .map_err(|e| Cli::Failed(format!("writing {}: {e}", path.display())))?;
        eprintln!("[perf] spans written to {}", path.display());
        out
    } else {
        measure::measure(a.workload, a.seed, a.seconds, &scratch)
    };
    Ok(emit(a.workload, a.seed, a.trace, out))
}

/// Prints the run's metrics by name and unit on stderr; then, on stdout,
/// its samples and facts digest (untraced runs only) and the result
/// object. Every metric `BENCHMARK.json` lists must have been measured,
/// and no other. Exits 1 unless every check passed.
pub fn emit(w: &Workload, seed: u64, trace: bool, mut out: Outcome) -> ExitCode {
    let spec = spec::get();
    let table = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    for (name, _) in &out.metrics {
        if !table.iter().any(|m| m.name == *name) {
            out.errors.push(format!(
                "metric {name} is measured but BENCHMARK.json does not list it"
            ));
        }
    }
    eprintln!(
        "[perf] {} seed={seed}{}: {} job(s), {} failed",
        w.name,
        if trace { " traced" } else { "" },
        out.attempted,
        out.failed
    );
    let mut fields = Vec::new();
    for m in table {
        let (name, unit) = (m.name.as_str(), m.unit.as_str());
        match out.get(name).filter(|v| v.is_finite()) {
            Some(v) => {
                let spread = out
                    .samples
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, s)| describe(m.better, s))
                    .unwrap_or_default();
                eprintln!("  {name:<28} {v:>16.6} {unit}{spread}");
                fields.push(format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_num(v)
                ));
            }
            None => out.errors.push(format!("metric {name} was not measured")),
        }
    }
    for e in &out.errors {
        eprintln!("  FAIL {e}");
    }
    if !trace {
        let samples: Vec<String> = out
            .samples
            .iter()
            .map(|(name, s)| {
                let vals: Vec<String> = s.iter().map(|v| json_num(*v)).collect();
                format!("\"{name}\":[{}]", vals.join(","))
            })
            .collect();
        println!(
            "{{\"samples\":{{{}}},\"digest\":\"{:#018X}\"}}",
            samples.join(","),
            out.digest
        );
    }
    let correct = out.errors.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `  (n jobs; q1 …, q3 …; pXX …)` over a metric's per-job samples.
fn describe(better: spec::Better, samples: &[f64]) -> String {
    if samples.is_empty() {
        return String::new();
    }
    let (q1, q3) = stats::quartiles(samples);
    let tail = stats::tail(samples, better)
        .map(|(p, v)| format!("; {p} {v:.6}"))
        .unwrap_or_default();
    format!("  ({} jobs; q1 {q1:.6}, q3 {q3:.6}{tail})", samples.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn measure_flags_parse_and_bad_ones_are_usage_errors() {
        let a = parse_measure(&args(&[
            "--workload",
            "scale-1m",
            "--seed",
            "9",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap_or_else(|_| panic!("valid flags"));
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("scale-1m", 9, 10.0, true)
        );
        let a = parse_measure(&args(&["--workload", "paper-480"]))
            .unwrap_or_else(|_| panic!("defaults"));
        assert_eq!((a.seed, a.seconds, a.trace), (101, 0.0, false));
        for bad in [
            &["--workload", "nope"][..],
            &["--workload"],
            &["--seed", "1"],
            &["--workload", "paper-480", "--trace", "2"],
            &["--workload", "paper-480", "--seconds", "-1"],
            &["--workload", "paper-480", "--frob", "1"],
        ] {
            assert!(
                matches!(parse_measure(&args(bad)), Err(Cli::Usage(_))),
                "{bad:?} must be a usage error"
            );
        }
    }

    #[test]
    fn results_must_match_the_listed_metrics() {
        let w = &spec::WORKLOADS[0];
        let measured = || {
            let mut out = Outcome::default();
            out.judge(Vec::new());
            for m in &spec::get().end_to_end {
                out.set(m.name.as_str(), 1.0);
            }
            out
        };
        assert_eq!(emit(w, 1, false, measured()), ExitCode::SUCCESS);
        let mut extra = measured();
        extra.set("not_listed", 1.0);
        assert_eq!(emit(w, 1, false, extra), ExitCode::FAILURE);
        let mut missing = measured();
        missing.metrics.pop();
        assert_eq!(emit(w, 1, false, missing), ExitCode::FAILURE);
    }

    #[test]
    fn json_numbers_keep_every_digit() {
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_num(1e-7), "0.0000001");
        assert_eq!(json_num(f64::NAN), "null");
    }
}
