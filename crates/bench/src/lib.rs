//! # peas-bench — the paper-experiment harness
//!
//! Regenerates every table and figure of the PEAS (ICDCS 2003) evaluation,
//! plus the analytical results and the ablations DESIGN.md calls out. Each
//! experiment in [`experiments`] returns a formatted, paper-style text
//! block; the `paper` binary prints them (`--quick` runs scaled-down
//! sweeps), and the module's unit tests render every figure formatter.
//!
//! | Experiment | Paper artifact |
//! |------------|----------------|
//! | [`experiments::fig9`]  | Fig 9 — coverage lifetime vs deployment number |
//! | [`experiments::fig10`] | Fig 10 — data delivery lifetime vs deployment number |
//! | [`experiments::fig11`] | Fig 11 — total wakeups vs deployment number |
//! | [`experiments::table1`]| Table 1 — energy overhead per deployment number |
//! | [`experiments::fig12`] | Fig 12 — coverage lifetime vs failure rate |
//! | [`experiments::fig13`] | Fig 13 — delivery lifetime vs failure rate |
//! | [`experiments::fig14`] | Fig 14 — wakeups vs failure rate |
//! | [`experiments::kaccuracy`] | §2.2.1 — estimator accuracy vs k |
//! | [`experiments::adaptive`]  | §2.2 — aggregate probing rate vs λd |
//! | [`experiments::gaps`]      | Figs 3–5 — randomized vs synchronized gaps |
//! | [`experiments::connectivity`] | §3 — (1+√5)Rp connectivity validation |
//! | [`experiments::loss`]      | §4 — multi-PROBE loss compensation |
//! | [`experiments::turnoff`]   | §4 — working-node turn-off ablation |
//! | [`experiments::baselines`] | §§1/6 — PEAS vs always-on / synchronized / GAF |
//!
//! It also holds what the bins share: the flag parser ([`Cli`]), stdout
//! writes that end quietly on a closed pipe ([`outln!`]), the
//! `<name|path.peas>` scenario resolver ([`scenario_path`]), and the plan
//! loop over the result cache ([`run_plan`], with the `--kill-after`
//! fault injection) behind `sweep` and `serve`.

pub mod experiments;
pub mod model_gate;
pub mod sweeps;

pub use experiments::ExperimentOpts;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::str::FromStr;
use std::time::Duration;

use peas_sim::{ResultCache, RunReport, SessionError, Shard, SweepPlan};

/// Writes `args` to stdout, for the bins' [`out!`] and [`outln!`]. When
/// the reader has gone away (`scenario run … | head -3`), the process
/// ends quietly with status 0, as a filter in a pipeline should; any
/// other write error panics, as `print!` would.
pub fn write_stdout(args: std::fmt::Arguments<'_>) {
    match std::io::Write::write_fmt(&mut std::io::stdout().lock(), args) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => panic!("failed printing to stdout: {e}"),
    }
}

/// `print!` through [`write_stdout`].
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// A bin's command line: the usage text printed with every usage error,
/// and the flags the bin declares. Any other argument that starts with
/// `-` is a usage error.
pub struct Cli {
    /// The bin's usage text.
    pub usage: &'static str,
    /// Declared flags that take the next argument as their value, with
    /// their dashes.
    pub values: &'static [&'static str],
    /// Declared flags that take no value, with their dashes.
    pub switches: &'static [&'static str],
}

impl Cli {
    /// Parses `raw`, the arguments after the program name.
    ///
    /// # Errors
    ///
    /// An undeclared flag, or a value flag at the end of `raw`: the
    /// error and the usage are printed to stderr, and the exit code of a
    /// usage error is returned.
    pub fn parse(&self, raw: &[String]) -> Result<Args, ExitCode> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut iter = raw.iter();
        while let Some(arg) = iter.next() {
            let name = arg.trim_start_matches('-').to_string();
            if self.values.contains(&arg.as_str()) {
                let Some(value) = iter.next() else {
                    return Err(self.usage_error(&format!("{arg} needs a value")));
                };
                flags.push((name, Some(value.clone())));
            } else if self.switches.contains(&arg.as_str()) {
                flags.push((name, None));
            } else if arg.len() > 1 && arg.starts_with('-') {
                return Err(self.usage_error(&format!("unknown flag `{arg}`")));
            } else {
                positional.push(arg.clone());
            }
        }
        Ok(Args { positional, flags })
    }

    /// Prints `msg` and the usage to stderr and returns exit code 2, the
    /// code of every usage error.
    pub fn usage_error(&self, msg: &str) -> ExitCode {
        eprintln!("error: {msg}\n{}", self.usage);
        ExitCode::from(2)
    }
}

/// A parsed command line: positional arguments in order, and the
/// declared flags that were given.
pub struct Args {
    /// The arguments that are not flags, in order.
    pub positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// The value of `--flag`, if given.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Whether `--flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(k, _)| k == flag)
    }

    /// The value of `--flag` parsed as a `T`, if given.
    ///
    /// # Errors
    ///
    /// A value that does not parse.
    pub fn parsed<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.get(flag)
            .map(|raw| {
                raw.parse()
                    .map_err(|_| format!("--{flag}: cannot parse `{raw}`"))
            })
            .transpose()
    }

    /// The directory `--flag DIR`.
    ///
    /// # Errors
    ///
    /// The flag is missing.
    pub fn dir(&self, flag: &str) -> Result<PathBuf, String> {
        self.get(flag)
            .map(PathBuf::from)
            .ok_or_else(|| format!("--{flag} DIR is required"))
    }

    /// `--workers N`: executor threads, the available cores by default.
    ///
    /// # Errors
    ///
    /// A value that does not parse, or 0.
    pub fn workers(&self) -> Result<usize, String> {
        let default = std::thread::available_parallelism().map_or(1, |n| n.get());
        match self.parsed("workers")?.unwrap_or(default) {
            0 => Err("--workers must be at least 1".to_string()),
            n => Ok(n),
        }
    }
}

/// The workspace's scenario corpus, anchored at the workspace root so
/// the bins work from any directory.
pub fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

/// Resolves a `<name|path.peas>` argument to a scenario file: an
/// argument ending in `.peas` is a path, anything else the stem of a
/// corpus file.
pub fn scenario_path(arg: &str) -> PathBuf {
    if Path::new(arg).extension().is_some_and(|ext| ext == "peas") {
        PathBuf::from(arg)
    } else {
        corpus_dir().join(format!("{arg}.peas"))
    }
}

/// SIGKILLs the current process — the `--kill-after` fault-injection
/// path, leaving the cache exactly as a crash would. Falls back to
/// `abort` if no `kill` binary exists.
fn sigkill_self() -> ! {
    let pid = std::process::id().to_string();
    let _ = Command::new("kill").args(["-KILL", &pid]).status();
    // Give the signal a moment to land, then hard-stop regardless.
    std::thread::sleep(Duration::from_secs(2));
    std::process::abort();
}

/// Novel shards executed per scheduling chunk: small enough that
/// progress reports advance while a sweep runs, large enough that the
/// worker pool stays saturated between chunk boundaries.
const CHUNK_PER_WORKER: usize = 2;

/// What [`run_plan`] did to answer a plan.
#[derive(Debug)]
pub struct PlanRun {
    /// Plan shards the cache served before anything ran.
    pub cached: usize,
    /// Shards executed, including re-runs of records lost to damage.
    pub executed: usize,
    /// The plan's reports in shard order, or the shards still missing.
    pub merged: Result<Vec<RunReport>, SessionError>,
}

/// Answers `plan` from `cache` — the one plan loop behind `sweep run`
/// and `serve`: scan, execute the novel shards on `workers` threads in
/// chunks, rescan with one retry, merge. `progress(done, total)` is
/// called before the first chunk and after each; `log` prefixes the
/// status lines written to stderr.
///
/// `kill_budget` is fault injection: with `Some(k)`, the process
/// SIGKILLs itself once `k` more shards have executed, so the cache is
/// left as a crash would leave it. The budget carries over between calls.
///
/// # Errors
///
/// Cache I/O failures, and any error `progress` returns.
pub fn run_plan(
    cache: &ResultCache,
    plan: &SweepPlan,
    workers: usize,
    kill_budget: &mut Option<usize>,
    log: &str,
    mut progress: impl FnMut(usize, usize) -> Result<(), String>,
) -> Result<PlanRun, String> {
    let scan = cache.scan().map_err(|e| format!("cache scan: {e}"))?;
    let total = plan.len();
    let cached = plan.cached(&scan);
    let novel = plan.novel(&scan);
    eprintln!(
        "{log}: {total} shard(s), {cached} cached, {} novel",
        novel.len()
    );

    // How many plan shards each novel key satisfies, so progress counts
    // advance by shard coverage as keys complete.
    let multiplicity = |shard: &Shard| plan.shards().iter().filter(|s| s.key == shard.key).count();
    let mut done = cached;
    progress(done, total)?;

    let chunk_size = (workers * CHUNK_PER_WORKER).max(1);
    let mut executed = 0usize;
    let mut offset = 0usize;
    while offset < novel.len() {
        if *kill_budget == Some(0) {
            sigkill_self();
        }
        let take = chunk_size
            .min(novel.len() - offset)
            .min(kill_budget.unwrap_or(usize::MAX));
        let chunk = &novel[offset..offset + take];
        cache
            .execute(chunk, workers)
            .map_err(|e| format!("cache execute: {e}"))?;
        executed += chunk.len();
        done += chunk.iter().map(multiplicity).sum::<usize>();
        offset += take;
        progress(done, total)?;
        if let Some(budget) = kill_budget {
            *budget -= take;
            if *budget == 0 {
                sigkill_self();
            }
        }
    }

    // Re-scan and merge; one retry covers a record quarantined between
    // the scheduling scan and this one (its shard simply re-runs).
    let mut scan = cache.scan().map_err(|e| format!("cache rescan: {e}"))?;
    let retry = plan.novel(&scan);
    if !retry.is_empty() {
        eprintln!(
            "{log}: {} shard(s) lost to damaged records; re-running",
            retry.len()
        );
        cache
            .execute(&retry, workers)
            .map_err(|e| format!("cache re-execute: {e}"))?;
        executed += retry.len();
        scan = cache.scan().map_err(|e| format!("cache rescan: {e}"))?;
    }
    Ok(PlanRun {
        cached,
        executed,
        merged: plan.merged(&scan),
    })
}
