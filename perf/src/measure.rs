//! Timed runs: the jobs of each workload, their end-to-end metrics, and
//! the checks every finished job must pass.
//!
//! A *job* is what a user submits to the sweep service: one simulation,
//! or one seed of a sweep. It is answered the way the service answers it
//! with one worker: scan the result cache, simulate the shards the cache
//! cannot serve one after another on this thread, append their reports,
//! merge, and encode one schema-1 line per shard. Each job
//! starts from an empty cache, so its first answer is cold. It is then
//! asked again at least [`WARM_ANSWERS`] times, and for at least
//! [`MIN_WARM_TIME`], and the cache answers without simulating anything.
//!
//! A *cycle* is one job per input seed of the workload. A run repeats
//! whole cycles while the next one still fits its time budget, and always
//! runs at least one.
//!
//! Host speed on a shared machine drifts by 10–20% over tens of seconds,
//! and short stalls hit single jobs. So each timed metric takes, for each
//! input seed, the best of that seed's jobs, and then the median over the
//! seeds. Peak RSS is read after the first cycle, so it does not depend
//! on how many cycles fit.

use std::fs;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use peas_scenario::sample_fingerprint;
use peas_sim::{
    decode_report, encode_report, fnv1a, ResultCache, RunReport, ScenarioConfig, Shard, SweepPlan,
    World,
};

use crate::spec::{self, Better, Facts, Workload};
use crate::stats::{best_median, median};

/// A run times at least this many set-ups, spanning at least
/// [`MIN_SETUP_TIME`], so `setup_s` is a median even when one job fills
/// the time budget.
const MIN_SETUPS: usize = 3;
const MIN_SETUP_TIME: Duration = Duration::from_millis(50);
/// Cached answers per job: at least this many, spanning at least
/// [`MIN_WARM_TIME`]. A one-run job with a small report answers in tens
/// of microseconds, where a few dozen timings are at the mercy of the
/// host.
pub const WARM_ANSWERS: usize = 20;
const MIN_WARM_TIME: Duration = Duration::from_millis(50);

/// Per-job values of one metric, keyed by the job's input seed.
type Keyed = Vec<(u64, f64)>;

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Metric values by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// The per-job samples behind each end-to-end metric.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// [`Ledger::digest`] of the run's jobs: runs of one workload and
    /// seed must agree on it.
    pub digest: u64,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Records a job's problems: the job counts as attempted, and as
    /// failed when it has any.
    pub fn judge(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.errors.extend(problems);
        }
    }

    /// Sets the end-to-end metrics from a run's samples: `setup_s` is the
    /// median of every set-up, the timed metrics the median over input
    /// seeds of each seed's best job. Keeps the per-job samples and the
    /// ledger's digest.
    fn finish(
        &mut self,
        setup: Vec<f64>,
        timed: [(&'static str, Keyed); 3],
        rss_mib: Option<f64>,
        ledger: &Ledger,
    ) {
        self.digest = ledger.digest();
        if !setup.is_empty() {
            self.set("setup_s", median(&setup));
        }
        self.samples.push(("setup_s", setup));
        for (name, keyed) in timed {
            let better = spec::get().metric(name).map_or(Better::Lower, |m| m.better);
            if !keyed.is_empty() {
                self.set(name, best_median(&keyed, better));
            }
            self.samples
                .push((name, keyed.into_iter().map(|(_, v)| v).collect()));
        }
        match rss_mib {
            Some(mib) => self.set("peak_rss_mib", mib),
            None => self
                .errors
                .push("no VmHWM in /proc/self/status: peak RSS is unmeasured".to_string()),
        }
    }
}

/// Compares each job's facts with its pin and with earlier jobs of the
/// same seed in this run.
pub struct Ledger {
    workload: &'static str,
    seen: Vec<(u64, Facts)>,
}

impl Ledger {
    pub fn new(workload: &'static str) -> Ledger {
        Ledger {
            workload,
            seen: Vec::new(),
        }
    }

    pub fn check(&mut self, seed: u64, facts: Facts) -> Vec<String> {
        let mut problems = Vec::new();
        if facts.events == 0 || facts.frames == 0 {
            problems.push(format!("seed {seed}: the job did no work ({facts:?})"));
        }
        if let Some(pin) = spec::pinned(self.workload, seed) {
            if pin != facts {
                problems.push(format!(
                    "seed {seed}: {facts:?} differs from the pinned {pin:?}"
                ));
            }
        }
        match self.seen.iter().find(|(s, _)| *s == seed) {
            Some((_, first)) if *first != facts => problems.push(format!(
                "seed {seed}: a repeated job gave {facts:?} after {first:?}"
            )),
            Some(_) => {}
            None => self.seen.push((seed, facts)),
        }
        problems
    }

    /// FNV-1a over every seed's facts, in the order first seen.
    pub fn digest(&self) -> u64 {
        fnv1a(format!("{:?}", self.seen).as_bytes())
    }
}

/// The answer to a job: one schema-1 line per shard, in plan order.
pub fn answer_text(reports: &[RunReport]) -> String {
    let mut answer = String::new();
    for report in reports {
        answer.push_str(&encode_report(report));
        answer.push('\n');
    }
    answer
}

/// Facts of a job's reports and answer. One report keeps its own golden
/// fingerprint; several are fingerprinted together.
pub fn facts(reports: &[RunReport], answer: &str) -> Facts {
    let sum = |f: fn(&RunReport) -> u64| reports.iter().map(f).sum();
    let fingerprint = match reports {
        [one] => sample_fingerprint(one),
        _ => {
            let all: Vec<u8> = reports
                .iter()
                .flat_map(|r| sample_fingerprint(r).to_le_bytes())
                .collect();
            fnv1a(&all)
        }
    };
    Facts {
        events: sum(|r| r.events_processed),
        wakeups: sum(RunReport::total_wakeups),
        frames: sum(|r| r.medium.frames_sent),
        fingerprint,
        answer: fnv1a(answer.as_bytes()),
    }
}

/// One simulation on this thread, its build and its run timed apart.
pub struct Sim {
    pub setup_s: f64,
    pub run_s: f64,
    pub report: RunReport,
}

impl Sim {
    pub fn events_per_s(&self) -> f64 {
        self.report.events_processed as f64 / self.run_s
    }
}

pub fn simulate(cfg: ScenarioConfig) -> Sim {
    let horizon = cfg.horizon;
    let t = Instant::now();
    let mut world = World::new(cfg);
    let setup_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    world.run_until(horizon);
    let run_s = t.elapsed().as_secs_f64();
    Sim {
        setup_s,
        run_s,
        report: world.into_report(),
    }
}

/// One job from an empty cache: its cold answer, then the warm ones.
pub struct Job {
    pub plan: SweepPlan,
    pub reports: Vec<RunReport>,
    pub answer: String,
    /// Host seconds from the job's runs to its cold answer.
    pub cold_s: f64,
    /// Host milliseconds of each warm answer.
    pub warm_ms: Vec<f64>,
    /// `World::new` of each shard.
    pub setup_s: Vec<f64>,
    /// Host seconds in the shards' event loops.
    pub run_s: f64,
    pub problems: Vec<String>,
}

impl Job {
    pub fn facts(&self) -> Facts {
        facts(&self.reports, &self.answer)
    }

    /// Simulated events per host second in the event loops.
    pub fn events_per_s(&self) -> f64 {
        let events: u64 = self.reports.iter().map(|r| r.events_processed).sum();
        events as f64 / self.run_s
    }
}

/// Answers `plan` from `cache` the way the sweep service does: scan,
/// simulate the novel shards with `run`, merge, encode. Returns the
/// answer, the reports and the number of shards `run` simulated.
fn answer(
    cache: &ResultCache,
    plan: &SweepPlan,
    run: impl FnOnce(&[Shard]) -> io::Result<usize>,
) -> io::Result<(String, Vec<RunReport>, usize)> {
    let scan = cache.scan()?;
    let executed = run(&plan.novel(&scan))?;
    let scan = if executed > 0 { cache.scan()? } else { scan };
    let reports = plan
        .merged(&scan)
        .map_err(|e| io::Error::other(e.to_string()))?;
    Ok((answer_text(&reports), reports, executed))
}

/// Runs the job `runs` into a fresh cache at `dir`: the cold answer, then
/// the warm ones, checking each against the cold answer and the cold
/// answer against direct simulation.
///
/// The cold answer simulates as `ResultCache::execute` does with one
/// worker, one [`simulate`] after another on this thread, so each shard's
/// build and event loop are timed apart. A pool of workers as wide as the
/// machine would time the host's scheduler along with the simulator.
pub fn job(runs: Vec<(String, ScenarioConfig)>, dir: &Path) -> io::Result<Job> {
    match fs::remove_dir_all(dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    let (mut setup_s, mut run_s, mut direct) = (Vec::new(), 0.0, Vec::new());
    let t = Instant::now();
    let plan = SweepPlan::new(runs);
    let cache = ResultCache::open(dir)?;
    let (answer_cold, reports, executed) = answer(&cache, &plan, |novel| {
        let mut writer = cache.writer(0)?;
        for shard in novel {
            let sim = simulate(shard.config.clone());
            writer.append(shard.key, &shard.label, &sim.report)?;
            setup_s.push(sim.setup_s);
            run_s += sim.run_s;
            direct.push(sim.report);
        }
        Ok(novel.len())
    })?;
    let cold_s = t.elapsed().as_secs_f64();

    let mut problems = Vec::new();
    if executed != plan.len() {
        problems.push(format!(
            "a fresh cache left {executed} of {} shards to simulate",
            plan.len()
        ));
    }
    // The cache must serve what the simulations produced.
    if reports != direct {
        problems.push("the cache served other reports than direct simulation".to_string());
    }
    for (k, (line, report)) in answer_cold.lines().zip(&reports).enumerate() {
        if !decode_report(line).is_ok_and(|decoded| decoded == *report) {
            problems.push(format!("answer line {k} does not decode to its report"));
        }
    }

    let mut warm_ms = Vec::with_capacity(WARM_ANSWERS);
    let warm_start = Instant::now();
    for k in 0.. {
        if k >= WARM_ANSWERS && warm_start.elapsed() >= MIN_WARM_TIME {
            break;
        }
        let t = Instant::now();
        let (again, _, _) = answer(&cache, &plan, |novel| {
            if novel.is_empty() {
                Ok(0)
            } else {
                Err(io::Error::other(format!(
                    "warm answer {k} found {} shards missing from the cache",
                    novel.len()
                )))
            }
        })?;
        warm_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if again != answer_cold {
            problems.push(format!("warm answer {k} differs from the cold one"));
        }
    }
    Ok(Job {
        plan,
        reports,
        answer: answer_cold,
        cold_s,
        warm_ms,
        setup_s,
        run_s,
        problems,
    })
}

/// Runs `cycle` once, then again while another cycle as long as the last
/// would still end within `seconds`. Returns the peak RSS in MiB after
/// the first cycle.
fn cycles(seconds: f64, mut cycle: impl FnMut()) -> Option<f64> {
    let start = Instant::now();
    let mut rss_mib = None;
    for k in 0.. {
        let t = Instant::now();
        cycle();
        if k == 0 {
            rss_mib = peak_rss_mib();
        }
        if start.elapsed().as_secs_f64() + t.elapsed().as_secs_f64() > seconds {
            break;
        }
    }
    rss_mib
}

/// One job of a workload: its input seed and its runs.
pub type JobInput = (u64, Vec<(String, ScenarioConfig)>);

/// Runs workload `w` from `seed` for about `seconds` of host time (at
/// least one cycle) and reports its end-to-end metrics. `scratch` holds
/// the jobs' result caches.
pub fn measure(w: &Workload, seed: u64, seconds: f64, scratch: &Path) -> Outcome {
    let jobs: Vec<JobInput> = spec::job_seeds(w, seed)
        .into_iter()
        .map(|s| (s, spec::job_runs(w, s)))
        .collect();
    run_jobs(w.name, &jobs, seconds, scratch)
}

/// Runs cycles of `jobs`, checking each job against the pins of
/// `workload`. Set-up is `World::new`; when the jobs' own builds number
/// fewer than [`MIN_SETUPS`] or take less than [`MIN_SETUP_TIME`], more
/// worlds are built from the jobs' configs in turn.
pub fn run_jobs(
    workload: &'static str,
    jobs: &[JobInput],
    seconds: f64,
    scratch: &Path,
) -> Outcome {
    assert!(!jobs.is_empty(), "a workload has at least one job");
    let mut configs = jobs
        .iter()
        .flat_map(|(_, runs)| runs)
        .map(|(_, cfg)| cfg)
        .cycle();
    let mut setup_once = move || {
        let cfg = configs
            .next()
            .expect("a non-empty cycle never ends")
            .clone();
        let t = Instant::now();
        let world = World::new(cfg);
        let setup_s = t.elapsed().as_secs_f64();
        drop(world);
        setup_s
    };
    let dir = scratch.join(format!("jobs-{}", std::process::id()));
    let mut out = Outcome::default();
    let mut ledger = Ledger::new(workload);
    let (mut events, mut cold, mut warm) = (Keyed::new(), Keyed::new(), Keyed::new());
    let mut setup = Vec::new();
    let rss_mib = cycles(seconds, || {
        for (seed, runs) in jobs {
            match job(runs.clone(), &dir) {
                Ok(j) => {
                    let mut problems = ledger.check(*seed, j.facts());
                    problems.extend(j.problems.iter().map(|p| format!("seed {seed}: {p}")));
                    out.judge(problems);
                    events.push((*seed, j.events_per_s()));
                    cold.push((*seed, j.cold_s));
                    warm.extend(j.warm_ms.iter().map(|&ms| (*seed, ms)));
                    setup.extend(j.setup_s);
                }
                Err(e) => out.judge(vec![format!("seed {seed}: cache I/O failed: {e}")]),
            }
        }
    });
    while setup.len() < MIN_SETUPS || setup.iter().sum::<f64>() < MIN_SETUP_TIME.as_secs_f64() {
        setup.push(setup_once());
    }
    if let Err(e) = fs::remove_dir_all(&dir) {
        out.errors.push(format!("removing {}: {e}", dir.display()));
    }
    out.finish(
        setup,
        [
            ("events_per_s", events),
            ("cold_job_s", cold),
            ("warm_job_ms", warm),
        ],
        rss_mib,
        &ledger,
    );
    out
}

/// The process's peak resident set (`VmHWM`) in MiB; Linux only.
fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
