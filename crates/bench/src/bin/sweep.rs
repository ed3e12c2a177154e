//! The sweep front end: runs a `.peas` sweep against a result cache
//! (`peas_sim::ResultCache`) on a thread pool, resumes it after any
//! interruption, and byte-compares two caches' merged reports.
//!
//! ```text
//! Usage: sweep <command> <scenario> --cache DIR [options]
//!
//! Commands:
//!   run      execute the shards the cache lacks, then merge
//!   status   print cache progress (cached/total, pending shards)
//!   verify   compare two caches' merged reports byte for byte
//!
//! Options (run):
//!   --cache DIR        result-cache directory (required)
//!   --workers N        executor threads (default: available cores)
//!   --resume           continue a sweep the cache already holds shards
//!                      of, instead of refusing to touch it
//!   --kill-after K     fault injection: SIGKILL self after K executed
//!                      shards
//!
//! Options (verify):
//!   --against DIR      the reference cache to compare with
//! ```
//!
//! `<scenario>` is a corpus stem (e.g. `sweep-smoke`, resolving to
//! `scenarios/sweep-smoke.peas`) or a path to any `.peas` file. `run` is
//! the plan loop `serve` uses (`peas_bench::run_plan`). A sweep
//! interrupted at any point — SIGKILL, machine crash, ^C — resumes with
//! `--resume` and produces a merged report byte-identical to an
//! uninterrupted run (pinned by `tests/sweep_resume.rs` and
//! `crates/bench/tests/serve_smoke.rs`).

use std::env;
use std::process::ExitCode;

use peas_bench::{outln, run_plan, scenario_path, Args, Cli};
use peas_scenario::{load_compiled, sample_fingerprint};
use peas_sim::{encode_report, fnv1a, ResultCache, RunReport, SessionError, SweepPlan};

const CLI: Cli = Cli {
    usage: "usage: sweep <run|status|verify> <name|path.peas> --cache DIR [options]\n\
            (e.g. `sweep run sweep-smoke --cache target/sweep --workers 2`; \
            see the module docs in crates/bench/src/bin/sweep.rs)",
    values: &["--cache", "--workers", "--kill-after", "--against"],
    switches: &["--resume"],
};

/// FNV-1a over the concatenated per-run fingerprint renderings: one
/// number that pins the whole merged sweep.
fn sweep_fingerprint(reports: &[RunReport]) -> u64 {
    let renderings: String = reports
        .iter()
        .map(|report| format!("{:#018X}", sample_fingerprint(report)))
        .collect();
    fnv1a(renderings.as_bytes())
}

/// Loads `<scenario>` and expands its sweep: the scenario's name and plan.
fn load_plan(arg: &str) -> Result<(String, SweepPlan), String> {
    let scenario = load_compiled(&scenario_path(arg)).map_err(|e| e.to_string())?;
    let runs = scenario
        .runs()
        .into_iter()
        .map(|run| (run.label, run.config))
        .collect();
    Ok((scenario.name, SweepPlan::new(runs)))
}

/// Opens the cache named by `--flag DIR`.
fn open_cache(args: &Args, flag: &str) -> Result<ResultCache, String> {
    let dir = args.dir(flag)?;
    ResultCache::open(&dir).map_err(|e| format!("{}: {e}", dir.display()))
}

fn print_merge(name: &str, plan: &SweepPlan, reports: &[RunReport]) {
    for (shard, report) in plan.shards().iter().zip(reports) {
        outln!("  {:<44} {:#018X}", shard.label, sample_fingerprint(report));
    }
    outln!(
        "{name}: {} run(s) merged, sweep_fingerprint = {:#018X}",
        reports.len(),
        sweep_fingerprint(reports)
    );
}

fn cmd_run(scenario_arg: &str, args: &Args) -> Result<(), String> {
    let (name, plan) = load_plan(scenario_arg)?;
    let cache = open_cache(args, "cache")?;
    let held = plan.cached(&cache.scan().map_err(|e| format!("cache scan: {e}"))?);
    if held > 0 && !args.has("resume") {
        return Err(format!(
            "cache {} already holds {held} of this sweep's shard(s); \
             pass --resume to continue it or point --cache at a fresh directory",
            cache.dir().display()
        ));
    }
    let run = run_plan(
        &cache,
        &plan,
        args.workers()?,
        &mut args.parsed("kill-after")?,
        &format!("[sweep] {name}"),
        |done, total| {
            eprintln!("[sweep] {done}/{total} shard(s) cached");
            Ok(())
        },
    )?;
    match run.merged {
        Ok(reports) => {
            print_merge(&name, &plan, &reports);
            Ok(())
        }
        Err(e) => Err(format!(
            "{e}; resume with: sweep run {scenario_arg} --cache {} --resume",
            cache.dir().display()
        )),
    }
}

fn cmd_status(scenario_arg: &str, args: &Args) -> Result<(), String> {
    let (name, plan) = load_plan(scenario_arg)?;
    let scan = open_cache(args, "cache")?
        .scan()
        .map_err(|e| format!("cache scan: {e}"))?;
    outln!(
        "{name}: {}/{} shard(s) cached",
        plan.cached(&scan),
        plan.len()
    );
    match plan.merged(&scan) {
        Ok(reports) => print_merge(&name, &plan, &reports),
        Err(SessionError::Incomplete { missing }) => {
            for shard in missing.iter().filter_map(|&i| plan.shards().get(i)) {
                outln!("  pending #{}: {}", shard.index, shard.label);
            }
        }
    }
    Ok(())
}

fn cmd_verify(scenario_arg: &str, args: &Args) -> Result<(), String> {
    let (_, plan) = load_plan(scenario_arg)?;
    let merged = |flag: &str| -> Result<Vec<RunReport>, String> {
        let scan = open_cache(args, flag)?
            .scan()
            .map_err(|e| format!("--{flag}: {e}"))?;
        plan.merged(&scan).map_err(|e| format!("--{flag}: {e}"))
    };
    let (a, b) = (merged("cache")?, merged("against")?);
    for (shard, (ra, rb)) in plan.shards().iter().zip(a.iter().zip(&b)) {
        if encode_report(ra) != encode_report(rb) {
            return Err(format!(
                "shard #{} ({}) differs between the caches \
                 (fingerprints {:#018X} vs {:#018X})",
                shard.index,
                shard.label,
                sample_fingerprint(ra),
                sample_fingerprint(rb)
            ));
        }
    }
    outln!(
        "verify ok: {} run(s) byte-identical, sweep_fingerprint = {:#018X}",
        a.len(),
        sweep_fingerprint(&a)
    );
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = env::args().skip(1).collect();
    let args = match CLI.parse(&raw) {
        Ok(args) => args,
        Err(code) => return code,
    };
    let [command, scenario_arg] = &args.positional[..] else {
        return CLI.usage_error("expected a command and a scenario");
    };
    let result = match command.as_str() {
        "run" => cmd_run(scenario_arg, &args),
        "status" => cmd_status(scenario_arg, &args),
        "verify" => cmd_verify(scenario_arg, &args),
        other => return CLI.usage_error(&format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
