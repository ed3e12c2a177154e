//! `perf run` and `perf compare`.
//!
//! `run` re-executes this binary once per repetition of each workload
//! (`--seconds 0`: one job cycle each) and once more traced, one child at
//! a time, so each child's peak RSS is its own and no two simulations
//! ever run at once. It summarizes each end-to-end
//! metric over the repetitions (median, quartiles, count, and a tail
//! percentile over the pooled jobs once there are enough) and writes
//! everything to `run.json`. `compare` reads two such files.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use peas_sim::report_json::{json_escape, parse_json, Json};

use crate::spec::{self, Better, Metric, Workload, WORKLOADS};
use crate::stats::{median, quartiles, ratio, tail};
use crate::{flag_value, json_num, parse_seed, parse_workload, Cli};

/// What one child run printed.
#[derive(Debug, Default)]
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
    samples: Vec<(String, Vec<f64>)>,
    digest: Option<String>,
}

fn num(v: Option<&Json>) -> Option<f64> {
    match v {
        Some(Json::Num(raw)) => raw.parse().ok(),
        _ => None,
    }
}

fn fields(v: Option<&Json>) -> &[(String, Json)] {
    match v {
        Some(Json::Obj(fields)) => fields,
        _ => &[],
    }
}

/// Runs `cmd` to completion and reads its result line (the last stdout
/// line that holds one) and samples line. A child that crashes or prints
/// no result counts as one failed job.
fn child(mut cmd: Command) -> ChildResult {
    let failed = ChildResult {
        attempted: 1,
        failed: 1,
        ..ChildResult::default()
    };
    let output = match cmd.stdout(Stdio::piped()).output() {
        Ok(output) => output,
        Err(e) => {
            eprintln!("[perf] cannot start {cmd:?}: {e}");
            return failed;
        }
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    let parsed = |prefix: &str| {
        stdout
            .lines()
            .rev()
            .find(|l| l.starts_with(prefix))
            .and_then(|l| parse_json(l).ok())
    };
    let Some(result) = parsed("{\"correct\"") else {
        eprintln!("[perf] {cmd:?} printed no result ({})", output.status);
        return failed;
    };
    let mut r = ChildResult {
        correct: matches!(result.get("correct"), Some(Json::Bool(true))) && output.status.success(),
        attempted: num(result.get("attempted")).map_or(1, |v| v as u64),
        failed: num(result.get("failed")).map_or(1, |v| v as u64),
        ..ChildResult::default()
    };
    if !r.correct {
        r.failed = r.failed.max(1);
    }
    for (name, m) in fields(result.get("metrics")) {
        if let Some(v) = num(m.get("value")) {
            r.metrics.push((name.clone(), v));
        }
    }
    if let Some(samples) = parsed("{\"samples\"") {
        if let Some(Json::Str(digest)) = samples.get("digest") {
            r.digest = Some(digest.clone());
        }
        for (name, list) in fields(samples.get("samples")) {
            if let Json::Arr(items) = list {
                let values = items.iter().filter_map(|v| num(Some(v))).collect();
                r.samples.push((name.clone(), values));
            }
        }
    }
    r
}

fn child_command(w: &Workload, seed: u64, trace: bool) -> Result<Command, Cli> {
    let exe = std::env::current_exe()
        .map_err(|e| Cli::Failed(format!("cannot find this executable: {e}")))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        w.name,
        "--seed",
        &seed.to_string(),
        "--seconds",
        "0",
    ])
    .args(["--trace", if trace { "1" } else { "0" }])
    .stderr(Stdio::inherit());
    Ok(cmd)
}

/// Repetitions of one workload and seed run the same jobs, so their facts
/// digests must agree; each repetition that disagrees with the first
/// counts one more failed job.
fn agree(name: &str, reps: &mut [ChildResult]) {
    let Some((first, rest)) = reps.split_first_mut() else {
        return;
    };
    for (k, r) in rest.iter_mut().enumerate() {
        if r.digest != first.digest {
            eprintln!(
                "[perf] {name}: repetition {} computed other results than repetition 1",
                k + 2
            );
            r.correct = false;
            r.failed += 1;
        }
    }
}

/// One end-to-end metric over a workload's repetitions.
struct Summary {
    metric: &'static Metric,
    /// Each repetition's value of the metric.
    values: Vec<f64>,
    /// Every job of every repetition.
    jobs: Vec<f64>,
}

struct WorkloadRun {
    workload: &'static Workload,
    seed: u64,
    attempted: u64,
    failed: u64,
    e2e: Vec<Summary>,
    layers: Vec<(String, f64)>,
}

impl WorkloadRun {
    fn error_rate(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

fn summarize(
    w: &'static Workload,
    seed: u64,
    reps: &[ChildResult],
    traced: ChildResult,
) -> WorkloadRun {
    let e2e = spec::get()
        .end_to_end
        .iter()
        .map(|metric| {
            let pick = |r: &ChildResult| {
                r.metrics
                    .iter()
                    .find(|(n, _)| *n == metric.name)
                    .map(|&(_, v)| v)
            };
            let jobs = reps
                .iter()
                .flat_map(|r| {
                    r.samples
                        .iter()
                        .find(|(n, _)| *n == metric.name)
                        .map_or_else(|| pick(r).into_iter().collect(), |(_, s)| s.clone())
                })
                .collect();
            Summary {
                metric,
                values: reps.iter().filter_map(pick).collect(),
                jobs,
            }
        })
        .collect();
    WorkloadRun {
        workload: w,
        seed,
        attempted: reps.iter().chain([&traced]).map(|r| r.attempted).sum(),
        failed: reps.iter().chain([&traced]).map(|r| r.failed).sum(),
        e2e,
        layers: traced.metrics,
    }
}

/// `git rev-parse HEAD`, when this is a git checkout with git installed.
fn git_revision() -> Option<String> {
    let out = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()?;
    let rev = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (out.status.success() && !rev.is_empty()).then_some(rev)
}

fn run_json(runs: &[WorkloadRun]) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rev = git_revision().map_or("null".to_string(), |r| format!("\"{}\"", json_escape(&r)));
    let list = |v: &[f64]| v.iter().map(|x| json_num(*x)).collect::<Vec<_>>().join(",");
    let mut out = format!(
        "{{\n  \"schema\": 1,\n  \"nproc\": {nproc},\n  \"git_rev\": {rev},\n  \"workloads\": [\n"
    );
    for (i, run) in runs.iter().enumerate() {
        let seeds: Vec<String> = spec::job_seeds(run.workload, run.seed)
            .iter()
            .map(u64::to_string)
            .collect();
        out.push_str(&format!(
            "    {{\n      \"name\": \"{}\",\n      \"why\": \"{}\",\n      \"seeds\": [{}],\n      \
             \"reps\": {},\n      \"attempted\": {},\n      \"failed\": {},\n      \
             \"error_rate\": {},\n      \"end_to_end\": {{\n",
            run.workload.name,
            json_escape(spec::get().why(run.workload.name)),
            seeds.join(","),
            run.workload.reps,
            run.attempted,
            run.failed,
            json_num(run.error_rate())
        ));
        let e2e: Vec<String> = run
            .e2e
            .iter()
            .filter(|s| !s.values.is_empty())
            .map(|s| {
                let (q1, q3) = quartiles(&s.values);
                let tail = tail(&s.jobs, s.metric.better)
                    .map(|(p, v)| format!(", \"{p}\": {}", json_num(v)))
                    .unwrap_or_default();
                format!(
                    "        \"{}\": {{\"unit\": \"{}\", \"better\": \"{}\", \"median\": {}, \
                     \"q1\": {}, \"q3\": {}, \"n\": {}, \"values\": [{}], \"jobs\": {}{tail}}}",
                    s.metric.name,
                    s.metric.unit,
                    s.metric.better.as_str(),
                    json_num(median(&s.values)),
                    json_num(q1),
                    json_num(q3),
                    s.values.len(),
                    list(&s.values),
                    s.jobs.len()
                )
            })
            .collect();
        out.push_str(&e2e.join(",\n"));
        out.push_str("\n      },\n      \"per_layer\": {\n");
        let layers: Vec<String> = spec::get()
            .per_layer
            .iter()
            .filter_map(|m| {
                let v = run.layers.iter().find(|(n, _)| *n == m.name)?.1;
                Some(format!(
                    "        \"{}\": {{\"unit\": \"{}\", \"better\": \"{}\", \"value\": {}}}",
                    m.name,
                    m.unit,
                    m.better.as_str(),
                    json_num(v)
                ))
            })
            .collect();
        out.push_str(&layers.join(",\n"));
        out.push_str(if i + 1 == runs.len() {
            "\n      }\n    }\n"
        } else {
            "\n      }\n    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

pub fn run(args: &[String]) -> Result<ExitCode, Cli> {
    let (mut selected, mut seed, mut out) = (Vec::new(), None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = flag_value(flag, &mut it);
        match flag.as_str() {
            "--workload" => {
                for name in value?.split(',') {
                    selected.push(parse_workload(name.trim())?);
                }
            }
            "--seed" => seed = Some(parse_seed(value?)?),
            "--out" => out = Some(PathBuf::from(value?)),
            other => return Err(Cli::Usage(format!("unknown argument `{other}`"))),
        }
    }
    if selected.is_empty() {
        selected = WORKLOADS.iter().collect();
    }
    let out = match out {
        Some(path) => path,
        None => crate::scratch_dir()?.join("run.json"),
    };
    let mut runs = Vec::new();
    for w in selected {
        let seed = seed.unwrap_or(w.default_seed);
        let mut reps = Vec::new();
        for rep in 1..=w.reps {
            eprintln!("[perf] {} seed={seed}: repetition {rep}/{}", w.name, w.reps);
            reps.push(child(child_command(w, seed, false)?));
        }
        eprintln!("[perf] {} seed={seed}: traced run", w.name);
        agree(w.name, &mut reps);
        let traced = child(child_command(w, seed, true)?);
        runs.push(summarize(w, seed, &reps, traced));
    }
    print_table(&runs);
    fs::write(&out, run_json(&runs))
        .map_err(|e| Cli::Failed(format!("writing {}: {e}", out.display())))?;
    eprintln!("[perf] wrote {}", out.display());
    if runs.iter().any(|r| r.failed > 0) {
        return Err(Cli::Failed("some jobs failed their checks".to_string()));
    }
    Ok(ExitCode::SUCCESS)
}

fn print_table(runs: &[WorkloadRun]) {
    for run in runs {
        println!(
            "{} (seed {}): {} job(s), {} failed, error_rate {}",
            run.workload.name,
            run.seed,
            run.attempted,
            run.failed,
            run.error_rate()
        );
        for s in run.e2e.iter().filter(|s| !s.values.is_empty()) {
            let (q1, q3) = quartiles(&s.values);
            let tail = tail(&s.jobs, s.metric.better)
                .map(|(p, v)| format!(", {p} {v:.6} over {} jobs", s.jobs.len()))
                .unwrap_or_default();
            println!(
                "  {:<28} {:>16.6} {:<6} (q1 {q1:.6}, q3 {q3:.6}, n {}{tail})",
                s.metric.name,
                median(&s.values),
                s.metric.unit,
                s.values.len()
            );
        }
        for m in &spec::get().per_layer {
            if let Some((_, v)) = run.layers.iter().find(|(n, _)| *n == m.name) {
                println!("  {:<28} {v:>16.6} {}", m.name, m.unit);
            }
        }
    }
}

/// One side of a comparison: a metric's summary in a `run.json`.
#[derive(Debug)]
struct Side {
    median: f64,
    q1: f64,
    q3: f64,
    values: Vec<f64>,
}

impl Side {
    fn read(v: &Json) -> Option<Side> {
        let values = match v.get("values") {
            Some(Json::Arr(items)) => items.iter().filter_map(|x| num(Some(x))).collect(),
            _ => Vec::new(),
        };
        Some(Side {
            median: num(v.get("median"))?,
            q1: num(v.get("q1"))?,
            q3: num(v.get("q3"))?,
            values,
        })
    }

    fn spread(&self) -> f64 {
        ratio((self.q3 - self.q1).abs(), self.median.abs())
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

/// The verdict on `new` against `base` for a metric with `better` and
/// `bound`: worse or better when the medians differ by more than the
/// bound, else the same. It is unresolved instead when either side's
/// quartile spread is wider than the bound, unless every new repetition
/// beats every base repetition.
fn verdict(better: Better, bound: f64, base: &Side, new: &Side) -> Verdict {
    let worse_by = match better {
        Better::Lower => (new.median - base.median) / base.median,
        Better::Higher => (base.median - new.median) / base.median,
    };
    let fold = |v: &[f64], f: fn(f64, f64) -> f64, init| v.iter().copied().fold(init, f);
    let all_better = !new.values.is_empty()
        && !base.values.is_empty()
        && match better {
            Better::Lower => {
                fold(&new.values, f64::max, f64::MIN) < fold(&base.values, f64::min, f64::MAX)
            }
            Better::Higher => {
                fold(&new.values, f64::min, f64::MAX) > fold(&base.values, f64::max, f64::MIN)
            }
        };
    if (base.spread() > bound || new.spread() > bound) && !all_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn read_run(path: &str) -> Result<Json, Cli> {
    let text = fs::read_to_string(path).map_err(|e| Cli::Failed(format!("reading {path}: {e}")))?;
    parse_json(&text).map_err(|e| Cli::Failed(format!("{path} is not JSON: {e}")))
}

fn workload_entry<'a>(run: &'a Json, name: &str) -> Option<&'a Json> {
    match run.get("workloads") {
        Some(Json::Arr(list)) => list
            .iter()
            .find(|w| matches!(w.get("name"), Some(Json::Str(n)) if n == name)),
        _ => None,
    }
}

pub fn compare(args: &[String]) -> Result<ExitCode, Cli> {
    let [base_path, new_path] = args else {
        return Err(Cli::Usage(
            "compare takes exactly two run.json files".to_string(),
        ));
    };
    let (base, new) = (read_run(base_path)?, read_run(new_path)?);
    println!(
        "{:<12} {:<14} {:>16} {:>16} {:>8} {:>6}  verdict",
        "workload", "metric", "base", "new", "change", "bound"
    );
    let mut any_worse = false;
    let mut row = |workload: &str, metric: &str, base: f64, new: f64, bound: f64, v: Verdict| {
        any_worse |= v == Verdict::Worse;
        println!(
            "{workload:<12} {metric:<14} {base:>16.6} {new:>16.6} {:>7.1}% {:>5.0}%  {}",
            ratio(new - base, base) * 100.0,
            bound * 100.0,
            format!("{v:?}").to_lowercase()
        );
    };
    for w in &WORKLOADS {
        let (Some(b), Some(n)) = (workload_entry(&base, w.name), workload_entry(&new, w.name))
        else {
            continue;
        };
        for m in &spec::get().end_to_end {
            let bound = m.bound.unwrap_or(0.0);
            let side = |run: &Json| {
                run.get("end_to_end")
                    .and_then(|e| e.get(&m.name))
                    .and_then(Side::read)
            };
            match (side(b), side(n)) {
                (Some(bs), Some(ns)) => {
                    let v = verdict(m.better, bound, &bs, &ns);
                    row(w.name, &m.name, bs.median, ns.median, bound, v);
                }
                _ => row(
                    w.name,
                    &m.name,
                    f64::NAN,
                    f64::NAN,
                    bound,
                    Verdict::Unresolved,
                ),
            }
        }
        // Any rise in the share of failed jobs is a regression.
        let (be, ne) = (
            num(b.get("error_rate")).unwrap_or(1.0),
            num(n.get("error_rate")).unwrap_or(1.0),
        );
        let v = match ne.partial_cmp(&be) {
            Some(std::cmp::Ordering::Greater) => Verdict::Worse,
            Some(std::cmp::Ordering::Less) => Verdict::Better,
            _ => Verdict::Same,
        };
        row(w.name, "error_rate", be, ne, 0.0, v);
    }
    Ok(if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure;
    use peas_des::time::SimTime;

    fn side(median: f64, q1: f64, q3: f64, values: &[f64]) -> Side {
        Side {
            median,
            q1,
            q3,
            values: values.to_vec(),
        }
    }

    #[test]
    fn verdicts_apply_the_bound_and_the_spread() {
        let base = side(100.0, 99.0, 101.0, &[99.0, 100.0, 101.0]);
        let same = side(104.0, 103.0, 105.0, &[103.0, 104.0, 105.0]);
        let slower = side(120.0, 119.0, 121.0, &[119.0, 120.0, 121.0]);
        let faster = side(80.0, 79.0, 81.0, &[79.0, 80.0, 81.0]);
        let noisy = side(100.0, 80.0, 120.0, &[80.0, 100.0, 120.0]);
        assert_eq!(verdict(Better::Lower, 0.1, &base, &same), Verdict::Same);
        assert_eq!(verdict(Better::Lower, 0.1, &base, &slower), Verdict::Worse);
        assert_eq!(verdict(Better::Lower, 0.1, &base, &faster), Verdict::Better);
        assert_eq!(
            verdict(Better::Higher, 0.1, &base, &slower),
            Verdict::Better
        );
        assert_eq!(verdict(Better::Higher, 0.1, &base, &faster), Verdict::Worse);
        assert_eq!(
            verdict(Better::Lower, 0.1, &base, &noisy),
            Verdict::Unresolved
        );
        // A noisy side is judged when every run beats every base run.
        let noisy_but_faster = side(60.0, 50.0, 70.0, &[50.0, 60.0, 70.0]);
        assert_eq!(
            verdict(Better::Lower, 0.1, &base, &noisy_but_faster),
            Verdict::Better
        );
        let noisy_but_a_bit_faster = side(95.0, 85.0, 98.0, &[85.0, 95.0, 98.0]);
        assert_eq!(
            verdict(Better::Lower, 0.1, &base, &noisy_but_a_bit_faster),
            Verdict::Same
        );
    }

    #[test]
    fn repetitions_that_disagree_count_as_failed() {
        let rep = |digest: &str| ChildResult {
            correct: true,
            attempted: 1,
            digest: Some(digest.to_string()),
            ..ChildResult::default()
        };
        let mut reps = [rep("0xA"), rep("0xA"), rep("0xB")];
        agree("w", &mut reps);
        let failed: Vec<u64> = reps.iter().map(|r| r.failed).collect();
        assert_eq!(failed, [0, 0, 1]);
        assert!(!reps[2].correct);
    }

    const SMOKE_ENV: &str = "PEAS_PERF_SMOKE_CHILD";

    /// The child half of the smoke test below: a no-op unless that test
    /// started this test binary as its child.
    #[test]
    fn smoke_child_entry() {
        if std::env::var_os(SMOKE_ENV).is_none() {
            return;
        }
        let w = &WORKLOADS[0];
        // Unpinned seeds on a 300 s horizon: a sub-second debug run.
        let jobs: Vec<measure::JobInput> = [1, 2]
            .into_iter()
            .map(|s| {
                let mut cfg = spec::sim_config(w, s);
                cfg.horizon = SimTime::from_secs(300);
                (s, vec![(format!("seed={s}"), cfg)])
            })
            .collect();
        let scratch = crate::scratch_dir().unwrap_or_else(|_| panic!("no scratch directory"));
        crate::emit(w, 1, false, measure::run_jobs(w.name, &jobs, 0.0, &scratch));
    }

    #[test]
    fn paper_480_smoke_through_a_child_process() {
        let exe = std::env::current_exe().expect("test binary path");
        let mut cmd = Command::new(exe);
        cmd.args(["suite::tests::smoke_child_entry", "--exact", "--nocapture"])
            .args(["--quiet", "--test-threads=1"])
            .env(SMOKE_ENV, "1")
            .stderr(Stdio::null());
        let r = child(cmd);
        assert!(r.correct, "{r:?}");
        assert_eq!((r.attempted, r.failed), (2, 0));
        for m in &spec::get().end_to_end {
            let v = r.metrics.iter().find(|(n, _)| *n == m.name);
            assert!(
                v.is_some_and(|&(_, v)| v > 0.0),
                "{} missing in {r:?}",
                m.name
            );
        }
        assert!(r.digest.is_some(), "{r:?}");
        let jobs = r.samples.iter().find(|(n, _)| n == "cold_job_s");
        assert_eq!(jobs.map(|(_, s)| s.len()), Some(2));
        let warm = r.samples.iter().find(|(n, _)| n == "warm_job_ms");
        assert!(warm.is_some_and(|(_, s)| s.len() >= 2 * measure::WARM_ANSWERS));
        let run = summarize(&WORKLOADS[0], 1, &[r], ChildResult::default());
        let json = parse_json(&run_json(&[run])).expect("run.json parses");
        let entry = workload_entry(&json, "paper-480").expect("workload entry");
        assert!(entry
            .get("end_to_end")
            .and_then(|e| e.get("cold_job_s"))
            .is_some());
    }
}
