//! The sweep service: a long-running `peas-bench serve` mode that turns
//! the content-addressed result cache (`peas_sim::cache`) into shared
//! infrastructure — N clients submit scenario sweeps into a spool
//! directory, the service dedupes every shard against the global cache,
//! executes only the novel ones on a worker pool, and streams progress
//! and merged results back as response files.
//!
//! ```text
//! Usage: serve <command> [arguments] [options]
//!
//! Commands:
//!   run       the service loop: watch the spool, schedule jobs
//!   submit    validate a job file and queue it in the spool atomically
//!   status    print cache statistics and per-job states
//!   drain     ask a running service to exit once the spool is empty
//!   shutdown  ask a running service to exit before starting another job
//!
//! Options (run):
//!   --spool DIR      spool directory (required)
//!   --cache DIR      result-cache directory (required)
//!   --scenarios DIR  corpus for job scenario stems (default: scenarios/)
//!   --workers N      worker threads (default: available cores)
//!   --poll-ms MS     idle poll interval (default 200)
//!   --drain          batch mode: exit once the spool is empty
//!   --kill-after K   fault injection: SIGKILL self after K executed shards
//!
//! Options (submit):  <job.json> --spool DIR
//! Options (status):  --spool DIR --cache DIR
//! Options (drain/shutdown): --spool DIR
//! ```
//!
//! ## Spool layout and job lifecycle
//!
//! ```text
//! spool/
//!   incoming/   submitted job files, picked up oldest-name-first
//!   active/     the job currently being served (crash-recovery point)
//!   done/       successfully served job files
//!   failed/     jobs that could not be parsed/compiled/served
//!   responses/  <job>.reports.jsonl + <job>.response.json per job
//!   progress/   <job>.progress.json while a job runs
//!   control/    `drain` / `shutdown` marker files
//! ```
//!
//! A job moves `incoming -> active -> done|failed`. The move into
//! `active/` happens *before* any work, so a service SIGKILLed mid-sweep
//! leaves the job there; the restarted service re-processes it, finds
//! the already-executed shards in the cache, runs only the remainder,
//! and produces response bytes identical to an uninterrupted run. The
//! plan loop is `peas_bench::run_plan`, the same one `sweep run` uses
//! (pinned by `crates/bench/tests/serve_smoke.rs` and the
//! `fault-injection` CI job).

use std::env;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use peas_bench::{corpus_dir, outln, run_plan, Args, Cli};
use peas_scenario::compile_job;
use peas_sim::job::{
    decode_job, decode_outcome, decode_progress, encode_outcome, encode_progress, JobOutcome,
    JobProgress, JobSpec,
};
use peas_sim::{encode_report, fnv1a, ResultCache, SweepPlan};

const CLI: Cli = Cli {
    usage: "usage: serve <run|submit|status|drain|shutdown> [arguments] --spool DIR [options]\n\
            (e.g. `serve run --spool target/spool --cache target/cache --drain`; \
            see the module docs in crates/bench/src/bin/serve.rs)",
    values: &[
        "--spool",
        "--cache",
        "--scenarios",
        "--workers",
        "--poll-ms",
        "--kill-after",
    ],
    switches: &["--drain"],
};

/// The spool directory family. Every accessor creates on first use.
struct Spool {
    root: PathBuf,
}

impl Spool {
    fn open(root: PathBuf) -> Result<Spool, String> {
        let spool = Spool { root };
        for sub in [
            "incoming",
            "active",
            "done",
            "failed",
            "responses",
            "progress",
            "control",
        ] {
            fs::create_dir_all(spool.root.join(sub))
                .map_err(|e| format!("{}: cannot create {sub}/: {e}", spool.root.display()))?;
        }
        Ok(spool)
    }

    fn sub(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    fn reports_path(&self, job: &str) -> PathBuf {
        self.sub("responses").join(format!("{job}.reports.jsonl"))
    }

    fn response_path(&self, job: &str) -> PathBuf {
        self.sub("responses").join(format!("{job}.response.json"))
    }

    fn progress_path(&self, job: &str) -> PathBuf {
        self.sub("progress").join(format!("{job}.progress.json"))
    }

    fn control_path(&self, what: &str) -> PathBuf {
        self.sub("control").join(what)
    }

    /// Sorted `.json` files in a spool subdirectory.
    fn list(&self, sub: &str) -> io::Result<Vec<PathBuf>> {
        let mut files: Vec<PathBuf> = fs::read_dir(self.sub(sub))?
            .filter_map(Result::ok)
            .map(|entry| entry.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
            .collect();
        files.sort();
        Ok(files)
    }

    /// The next job to serve: a crash-recovered file from `active/` if
    /// any, else the oldest-named submission moved out of `incoming/`.
    fn claim_next(&self) -> Result<Option<PathBuf>, String> {
        let active = self.list("active").map_err(|e| e.to_string())?;
        if let Some(path) = active.into_iter().next() {
            return Ok(Some(path));
        }
        let incoming = self.list("incoming").map_err(|e| e.to_string())?;
        let Some(path) = incoming.into_iter().next() else {
            return Ok(None);
        };
        let claimed = self
            .sub("active")
            .join(path.file_name().unwrap_or_default());
        fs::rename(&path, &claimed).map_err(|e| format!("cannot claim {}: {e}", path.display()))?;
        Ok(Some(claimed))
    }
}

/// Writes `contents` to `path` atomically (same-directory tmp + rename),
/// so readers never observe a half-written response.
fn write_atomic(path: &Path, contents: &str) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, contents).map_err(|e| format!("{}: {e}", tmp.display()))?;
    fs::rename(&tmp, path).map_err(|e| format!("{}: {e}", path.display()))
}

// ---------------------------------------------------------------------------
// serve run
// ---------------------------------------------------------------------------

struct ServiceConfig {
    spool: Spool,
    cache: ResultCache,
    scenarios: PathBuf,
    workers: usize,
    poll: Duration,
    drain: bool,
    /// Remaining shard budget before the injected SIGKILL (`None`: no
    /// fault injection).
    kill_budget: Option<usize>,
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let spool = Spool::open(args.dir("spool")?)?;
    let cache = ResultCache::open(args.dir("cache")?).map_err(|e| format!("--cache: {e}"))?;
    let scenarios = args.get("scenarios").map_or_else(corpus_dir, PathBuf::from);
    let mut service = ServiceConfig {
        spool,
        cache,
        scenarios,
        workers: args.workers()?,
        poll: Duration::from_millis(args.parsed("poll-ms")?.unwrap_or(200)),
        drain: args.has("drain"),
        kill_budget: args.parsed("kill-after")?,
    };

    // A fresh service ignores control commands aimed at its predecessor.
    for control in ["drain", "shutdown"] {
        let _ = fs::remove_file(service.spool.control_path(control));
    }

    eprintln!(
        "[serve] watching {} against cache {} ({} worker(s){})",
        service.spool.root.display(),
        service.cache.dir().display(),
        service.workers,
        if service.drain { ", drain mode" } else { "" }
    );
    loop {
        if service.spool.control_path("shutdown").exists() {
            let _ = fs::remove_file(service.spool.control_path("shutdown"));
            eprintln!("[serve] shutdown requested; exiting");
            return Ok(());
        }
        match service.spool.claim_next()? {
            Some(job_path) => serve_job(&mut service, &job_path)?,
            None => {
                if service.drain {
                    eprintln!("[serve] spool drained; exiting");
                    return Ok(());
                }
                if service.spool.control_path("drain").exists() {
                    let _ = fs::remove_file(service.spool.control_path("drain"));
                    eprintln!("[serve] drain requested and spool empty; exiting");
                    return Ok(());
                }
                std::thread::sleep(service.poll);
            }
        }
    }
}

/// Serves one claimed job file end to end: compile, dedup, execute the
/// novel shards, respond, archive. Never returns an error for a *bad
/// job* (that becomes a `failed` response); only infrastructure failures
/// (spool/cache I/O) propagate.
fn serve_job(service: &mut ServiceConfig, job_path: &Path) -> Result<(), String> {
    let fallback_name = job_path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "job".to_string());
    let spec = match fs::read_to_string(job_path)
        .map_err(|e| e.to_string())
        .and_then(|src| decode_job(&src))
    {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("[serve] job {fallback_name}: rejected ({e})");
            return finish_job(service, job_path, &fallback_name, failed(&fallback_name, e));
        }
    };
    let runs = match compile_job(&spec, &service.scenarios) {
        Ok(compiled) => compiled.runs(),
        Err(e) => {
            eprintln!("[serve] job {}: does not compile ({e})", spec.name);
            return finish_job(
                service,
                job_path,
                &spec.name,
                failed(&spec.name, e.to_string()),
            );
        }
    };
    let plan = SweepPlan::new(runs.into_iter().map(|r| (r.label, r.config)).collect());

    let run = run_plan(
        &service.cache,
        &plan,
        service.workers,
        &mut service.kill_budget,
        &format!("[serve] job {}", spec.name),
        |done, total| write_progress(&service.spool, &spec.name, done, total),
    )?;
    let outcome = match run.merged {
        Ok(reports) => {
            let mut body = String::new();
            for report in &reports {
                body.push_str(&encode_report(report));
                body.push('\n');
            }
            write_atomic(&service.spool.reports_path(&spec.name), &body)?;
            JobOutcome {
                name: spec.name.clone(),
                total: plan.len(),
                cached: run.cached,
                executed: run.executed,
                result_fingerprint: fnv1a(body.as_bytes()),
                error: None,
            }
        }
        Err(e) => failed(&spec.name, e.to_string()),
    };
    eprintln!(
        "[serve] job {}: {} (total={} cached={} executed={})",
        spec.name,
        if outcome.is_done() { "done" } else { "failed" },
        outcome.total,
        outcome.cached,
        outcome.executed
    );
    finish_job(service, job_path, &spec.name, outcome)
}

fn failed(name: &str, error: String) -> JobOutcome {
    JobOutcome {
        name: name.to_string(),
        total: 0,
        cached: 0,
        executed: 0,
        result_fingerprint: 0,
        error: Some(error),
    }
}

fn write_progress(spool: &Spool, name: &str, done: usize, total: usize) -> Result<(), String> {
    let progress = JobProgress {
        name: name.to_string(),
        done,
        total,
    };
    write_atomic(
        &spool.progress_path(name),
        &format!("{}\n", encode_progress(&progress)),
    )
}

/// Writes the response, clears the progress file and archives the job
/// file into `done/` or `failed/`.
fn finish_job(
    service: &ServiceConfig,
    job_path: &Path,
    name: &str,
    outcome: JobOutcome,
) -> Result<(), String> {
    let archive = if outcome.is_done() { "done" } else { "failed" };
    write_atomic(
        &service.spool.response_path(name),
        &format!("{}\n", encode_outcome(&outcome)),
    )?;
    let _ = fs::remove_file(service.spool.progress_path(name));
    let dest = service
        .spool
        .sub(archive)
        .join(job_path.file_name().unwrap_or_default());
    fs::rename(job_path, &dest).map_err(|e| format!("cannot archive {}: {e}", job_path.display()))
}

// ---------------------------------------------------------------------------
// serve submit / status / drain / shutdown
// ---------------------------------------------------------------------------

fn cmd_submit(args: &Args) -> Result<(), String> {
    let [_, job_file] = &args.positional[..] else {
        return Err("usage: serve submit <job.json> --spool DIR".to_string());
    };
    let spool = Spool::open(args.dir("spool")?)?;
    let src = fs::read_to_string(job_file).map_err(|e| format!("{job_file}: {e}"))?;
    let spec: JobSpec = decode_job(&src).map_err(|e| format!("{job_file}: {e}"))?;
    for queue in ["incoming", "active"] {
        let queued = spool.sub(queue).join(format!("{}.json", spec.name));
        if queued.exists() {
            return Err(format!(
                "job `{}` is already {}; pick another job name",
                spec.name,
                if queue == "incoming" {
                    "queued"
                } else {
                    "being served"
                }
            ));
        }
    }
    write_atomic(
        &spool.sub("incoming").join(format!("{}.json", spec.name)),
        &src,
    )?;
    outln!(
        "submitted job {} ({})",
        spec.name,
        match &spec.source {
            peas_sim::JobSource::Scenario(s) => format!("scenario {s}"),
            peas_sim::JobSource::Inline(_) => "inline scenario".to_string(),
        }
    );
    Ok(())
}

fn cmd_status(args: &Args) -> Result<(), String> {
    let spool = Spool::open(args.dir("spool")?)?;
    let cache = ResultCache::open(args.dir("cache")?).map_err(|e| format!("--cache: {e}"))?;
    let scan = cache.scan().map_err(|e| format!("cache scan: {e}"))?;
    outln!(
        "cache: {} record(s), {} distinct key(s) in {} segment(s), {} quarantined, {} torn",
        scan.records,
        scan.len(),
        scan.segments,
        scan.quarantined,
        scan.torn
    );
    for queue in ["incoming", "active", "done", "failed"] {
        let files = spool.list(queue).map_err(|e| e.to_string())?;
        if !files.is_empty() {
            let names: Vec<String> = files
                .iter()
                .filter_map(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
                .collect();
            outln!("{queue}: {} ({})", files.len(), names.join(", "));
        }
    }
    // Live progress first, then finished outcomes, each name-sorted.
    let mut progress_files = spool.list("progress").map_err(|e| e.to_string())?;
    progress_files.sort();
    for path in progress_files {
        if let Ok(p) = fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|src| decode_progress(src.trim()))
        {
            outln!("job {}: running {}/{}", p.name, p.done, p.total);
        }
    }
    let mut responses = spool.list("responses").map_err(|e| e.to_string())?;
    responses.retain(|p| p.to_string_lossy().ends_with(".response.json"));
    responses.sort();
    for path in responses {
        let Ok(outcome) = fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|src| decode_outcome(src.trim()))
        else {
            continue;
        };
        match &outcome.error {
            None => outln!(
                "job {}: done total={} cached={} executed={} result={:#018X}",
                outcome.name,
                outcome.total,
                outcome.cached,
                outcome.executed,
                outcome.result_fingerprint
            ),
            Some(error) => outln!("job {}: failed ({error})", outcome.name),
        }
    }
    Ok(())
}

fn cmd_control(args: &Args, what: &str) -> Result<(), String> {
    let spool = Spool::open(args.dir("spool")?)?;
    fs::write(spool.control_path(what), "")
        .map_err(|e| format!("cannot write control file: {e}"))?;
    outln!("{what} requested");
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = env::args().skip(1).collect();
    let args = match CLI.parse(&raw) {
        Ok(args) => args,
        Err(code) => return code,
    };
    let Some(command) = args.positional.first() else {
        return CLI.usage_error("missing command");
    };
    let result = match command.as_str() {
        "run" => cmd_run(&args),
        "submit" => cmd_submit(&args),
        "status" => cmd_status(&args),
        "drain" => cmd_control(&args, "drain"),
        "shutdown" => cmd_control(&args, "shutdown"),
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
