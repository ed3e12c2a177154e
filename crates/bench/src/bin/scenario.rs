//! The scenario driver: the one command line for running a `.peas`
//! scenario — a single simulation, a sweep, or a model check — and for
//! maintaining the golden conformance snapshots.
//!
//! A scenario argument is a file stem under `scenarios/` (e.g. `fig9`)
//! or a path ending in `.peas`; `all` selects the whole corpus. A
//! scenario's golden snapshot is `golden/<stem>.golden` beside its file.
//!
//! `run` prints a summary of every run of a simulation scenario, or with
//! `--json` one schema-1 report line per run (the serialized form the
//! result cache stores). For a scenario that expands to one run,
//! `--csv FILE` writes its sample series and `--trace FILE` every mode
//! change, death and frame transmission, both as CSV.
//!
//! `run` on a `[model]` scenario explores its micro-world, or replays its
//! `[trace]`, and prints the snapshot. An exploration that finds a
//! violation writes the shrunk counterexample, itself a runnable
//! scenario, to `target/model/<stem>-ce.peas`. The run fails (exit 1)
//! when the violation found differs from `[trace] expect_violation`
//! (`none` when absent), or when a replayed trace gets stuck.
//!
//! Usage errors exit 2: an undeclared flag, `run` or `fingerprint`
//! without a scenario, and `--csv` or `--trace` on anything but one
//! single-run scenario.

use std::cell::RefCell;
use std::env;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::rc::Rc;

use peas_bench::model_gate::{expected_rule, model_cfg, model_run, model_snapshot};
use peas_bench::{corpus_dir, out, outln, scenario_path, Cli};
use peas_des::time::SimTime;
use peas_model::{emit_peas, shrink_nodes, shrink_trace, FoundViolation};
use peas_scenario::{first_divergence, load_compiled, CompiledScenario, ModelSpec, Snapshot};
use peas_sim::{encode_report, RunReport, Runner, ScenarioConfig, TraceEvent, World};

const USAGE: &str = "\
usage: scenario <command> [<name|path.peas> ...|all] [flags]
  list        [scenario ...]  list scenarios with their runs (default: all)
  run         <scenario ...>  run each scenario, print a summary of every run
      --json                  print one schema-1 report line per run instead
      --csv FILE              one single-run scenario: write its sample series
      --trace FILE            one single-run scenario: write its protocol trace
  fingerprint <scenario ...>  run the golden config, print its snapshot
  check       [scenario ...]  compare fresh snapshots with the goldens (default: all)
  bless       [scenario ...]  rewrite the goldens from fresh runs (default: all)";

/// A selected scenario: its file stem, its file, and what it compiled to.
struct Entry {
    stem: String,
    path: PathBuf,
    scenario: CompiledScenario,
}

/// Loads the named scenarios; `all`, or no name at all, selects the
/// whole corpus in file-name order.
fn select(names: &[String]) -> Result<Vec<Entry>, String> {
    let paths: Vec<PathBuf> = if names.is_empty() || names.iter().any(|n| n == "all") {
        let dir = corpus_dir();
        let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
            .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
            .filter_map(Result::ok)
            .map(|entry| entry.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "peas"))
            .collect();
        paths.sort();
        paths
    } else {
        names.iter().map(|name| scenario_path(name)).collect()
    };
    paths
        .into_iter()
        .map(|path| {
            let scenario = load_compiled(&path).map_err(|e| e.to_string())?;
            let stem = path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default();
            Ok(Entry {
                stem,
                path,
                scenario,
            })
        })
        .collect()
}

/// Where an entry's golden snapshot lives.
fn golden_path(entry: &Entry) -> PathBuf {
    entry
        .path
        .with_file_name("golden")
        .join(format!("{}.golden", entry.stem))
}

/// The canonical snapshot of a scenario: a model-checker outcome for
/// `[model]` scenarios, a golden-config simulation otherwise.
fn snapshot_of(scenario: &CompiledScenario) -> Result<Snapshot, String> {
    if scenario.model.is_some() {
        return model_snapshot(scenario);
    }
    Ok(Snapshot::of_report(
        &Runner::new(scenario.golden_config()).run_single(),
    ))
}

fn cmd_list(selected: &[Entry]) -> bool {
    for Entry { stem, scenario, .. } in selected {
        if let Some(spec) = &scenario.model {
            let kind = if scenario.trace.is_some() {
                "trace replay"
            } else {
                "exhaustive exploration"
            };
            outln!("{stem:<12} {:>4} nodes  model world ({kind})", spec.nodes);
            continue;
        }
        let runs = scenario.runs();
        let sweep = match &scenario.sweep {
            Some(sw) => format!(
                "sweep {}.{} ({} values x {} seeds)",
                sw.section,
                sw.key,
                sw.values.len(),
                sw.seeds.len()
            ),
            None => "single run".to_string(),
        };
        outln!(
            "{stem:<12} {:>4} nodes  {:>3} runs  {sweep}",
            scenario.base.node_count,
            runs.len()
        );
    }
    true
}

/// What `run` writes besides its summary.
struct RunOpts {
    json: bool,
    csv: Option<PathBuf>,
    trace: Option<PathBuf>,
}

/// Why `--csv` and `--trace` cannot apply to the selection, if they
/// cannot: they write the files of one run, so they need exactly one
/// scenario that expands to one simulation run.
fn single_run(selected: &[Entry]) -> Result<(), String> {
    match selected {
        [entry] if entry.scenario.model.is_some() => {
            Err(format!("`{}` is a model-checking scenario", entry.stem))
        }
        [entry] => match entry.scenario.runs().len() {
            1 => Ok(()),
            n => Err(format!("`{}` expands to {n} runs", entry.stem)),
        },
        _ => Err(format!("{} scenarios are selected", selected.len())),
    }
}

fn cmd_run(selected: &[Entry], opts: &RunOpts) -> bool {
    let mut ok = true;
    for entry in selected {
        let result = match &entry.scenario.model {
            Some(spec) => run_model(entry, spec),
            None => run_simulation(entry, opts),
        };
        if let Err(e) = result {
            eprintln!("{}: {e}", entry.stem);
            ok = false;
        }
    }
    ok
}

/// Explores or replays a model scenario, and fails unless the violation
/// found is the one `[trace] expect_violation` names.
fn run_model(entry: &Entry, spec: &ModelSpec) -> Result<(), String> {
    let (snapshot, found) = model_run(&entry.scenario)?;
    out!("{}", snapshot.render(&entry.stem));
    if let Some(found) = &found {
        eprintln!("{}: VIOLATION {}", entry.stem, found.violation);
        write_counterexample(entry, spec, found)?;
    }
    if let Some(at) = snapshot.get("stuck_at").filter(|at| *at != "none") {
        return Err(format!("trace got stuck at event {at}: not enabled"));
    }
    let want = expected_rule(&entry.scenario);
    let got = snapshot.get("violation").unwrap_or("none");
    if got != want {
        return Err(format!("expected violation `{want}`, found `{got}`"));
    }
    Ok(())
}

/// Shrinks a found violation and writes it, as a scenario that replays
/// it, to `target/model/<stem>-ce.peas`.
fn write_counterexample(
    entry: &Entry,
    spec: &ModelSpec,
    found: &FoundViolation,
) -> Result<(), String> {
    let cfg = model_cfg(spec, &entry.scenario);
    let rule = found.violation.rule();
    let trace = shrink_trace(&cfg, &found.trace, rule);
    let (small_cfg, small_trace) = shrink_nodes(&cfg, &trace, rule);
    let name = format!("{}-ce", entry.stem);
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/model");
    let path = dir.join(format!("{name}.peas"));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, emit_peas(&name, &small_cfg, &small_trace, rule)))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!(
        "{}: shrunk counterexample ({} events) -> {}",
        entry.stem,
        small_trace.len(),
        path.display()
    );
    Ok(())
}

fn run_simulation(entry: &Entry, opts: &RunOpts) -> Result<(), String> {
    let runs = entry.scenario.runs();
    if !opts.json {
        outln!("{}: {} run(s)", entry.stem, runs.len());
    }
    let (labels, configs): (Vec<String>, Vec<ScenarioConfig>) =
        runs.into_iter().map(|run| (run.label, run.config)).unzip();
    let reports = if opts.csv.is_some() || opts.trace.is_some() {
        // `main` admits the exports only for a single-run scenario.
        configs
            .into_iter()
            .map(|config| run_exported(config, opts))
            .collect::<Result<Vec<_>, _>>()?
    } else {
        Runner::configs(configs).run()
    };
    for (label, report) in labels.iter().zip(&reports) {
        if opts.json {
            outln!("{}", encode_report(report));
        } else {
            print_summary(label, report);
        }
    }
    Ok(())
}

/// Prints one run's summary: every headline figure of its report.
fn print_summary(label: &str, r: &RunReport) {
    outln!(
        "  {label}: {} nodes, seed {}, {:.0} s simulated, {} wakeups",
        r.node_count,
        r.seed,
        r.end_secs,
        r.total_wakeups()
    );
    outln!(
        "    coverage lifetime: k=1 {:.0} s | k=3 {:.0} s | k=4 {:.0} s | k=5 {:.0} s",
        r.coverage_lifetime(1, 0.9),
        r.coverage_lifetime(3, 0.9),
        r.coverage_lifetime(4, 0.9),
        r.coverage_lifetime(5, 0.9)
    );
    if r.generated_reports > 0 {
        outln!(
            "    data delivery    : lifetime {:.0} s, {}/{} reports",
            r.delivery_lifetime(0.9),
            r.delivered_reports,
            r.generated_reports
        );
    }
    outln!(
        "    energy           : {:.0} J consumed, overhead {:.2} J ({:.3}%)",
        r.consumed_j,
        r.overhead_j(),
        r.overhead_ratio() * 100.0
    );
    outln!(
        "    deaths           : {} failures, {} battery",
        r.failures_injected,
        r.energy_deaths
    );
    outln!(
        "    medium           : {} frames, {} ok, {} collided, {} lost",
        r.medium.frames_sent,
        r.medium.deliveries_ok,
        r.medium.collisions,
        r.medium.random_losses
    );
}

/// Runs one config, and writes its protocol trace to `--trace` and its
/// sample series to `--csv`.
fn run_exported(config: ScenarioConfig, opts: &RunOpts) -> Result<RunReport, String> {
    let rows = Rc::new(RefCell::new(String::from("t_secs,event,node,detail\n")));
    let mut world = World::new(config);
    if opts.trace.is_some() {
        let sink = Rc::clone(&rows);
        world.set_trace(move |t: SimTime, event: &TraceEvent| {
            let mut rows = sink.borrow_mut();
            rows.push_str(&event.to_csv_row(t));
            rows.push('\n');
        });
    }
    let report = world.run();
    if let Some(path) = &opts.trace {
        let rows = rows.borrow();
        std::fs::write(path, rows.as_bytes())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let events = rows.lines().count() - 1;
        eprintln!(
            "[scenario] wrote {events} trace events to {}",
            path.display()
        );
    }
    if let Some(path) = &opts.csv {
        let mut series = Vec::new();
        report
            .write_csv(&mut series)
            .and_then(|()| std::fs::write(path, series))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!(
            "[scenario] wrote {} samples to {}",
            report.samples.len(),
            path.display()
        );
    }
    Ok(report)
}

fn cmd_fingerprint(selected: &[Entry]) -> bool {
    let mut ok = true;
    for entry in selected {
        match snapshot_of(&entry.scenario) {
            Ok(snapshot) => out!("{}", snapshot.render(&entry.stem)),
            Err(e) => {
                eprintln!("{}: {e}", entry.stem);
                ok = false;
            }
        }
    }
    ok
}

fn cmd_check(selected: &[Entry]) -> bool {
    let mut clean = true;
    for entry in selected {
        let stem = &entry.stem;
        let path = golden_path(entry);
        let committed = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!(
                    "{stem}: missing golden snapshot {} ({e}); run `bless`",
                    path.display()
                );
                clean = false;
                continue;
            }
        };
        let expected = match Snapshot::parse(&committed) {
            Ok(snapshot) => snapshot,
            Err(e) => {
                eprintln!("{stem}: malformed golden snapshot: {e}");
                clean = false;
                continue;
            }
        };
        let actual = match snapshot_of(&entry.scenario) {
            Ok(snapshot) => snapshot,
            Err(e) => {
                eprintln!("{stem}: {e}");
                clean = false;
                continue;
            }
        };
        match first_divergence(&expected, &actual) {
            None => outln!("{stem}: ok"),
            Some(divergence) => {
                eprintln!("{stem}: DRIFT at {divergence} (golden: {})", path.display());
                clean = false;
            }
        }
    }
    clean
}

fn cmd_bless(selected: &[Entry]) -> Result<(), String> {
    for entry in selected {
        let snapshot = snapshot_of(&entry.scenario)?;
        let path = golden_path(entry);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        std::fs::write(&path, snapshot.render(&entry.stem))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let headline = snapshot
            .get("fingerprint")
            .or_else(|| snapshot.get("canon_hash"))
            .or_else(|| snapshot.get("final_state_hash"))
            .unwrap_or("?");
        outln!("{}: blessed {} ({headline})", entry.stem, path.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = env::args().skip(1).collect();
    // Only `run` takes flags.
    let run = raw.first().is_some_and(|command| command == "run");
    let cli = Cli {
        usage: USAGE,
        values: if run { &["--csv", "--trace"] } else { &[] },
        switches: if run { &["--json"] } else { &[] },
    };
    let args = match cli.parse(&raw) {
        Ok(args) => args,
        Err(code) => return code,
    };
    let Some((command, names)) = args.positional.split_first() else {
        return cli.usage_error("missing command");
    };
    let needs_name = match command.as_str() {
        "run" | "fingerprint" => true,
        "list" | "check" | "bless" => false,
        other => return cli.usage_error(&format!("unknown command `{other}`")),
    };
    if needs_name && names.is_empty() {
        return cli.usage_error(&format!(
            "`{command}` needs a scenario name, a .peas path or `all`"
        ));
    }
    let selected = match select(names) {
        Ok(selected) => selected,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let opts = RunOpts {
        json: args.has("json"),
        csv: args.get("csv").map(PathBuf::from),
        trace: args.get("trace").map(PathBuf::from),
    };
    if opts.csv.is_some() || opts.trace.is_some() {
        if let Err(e) = single_run(&selected) {
            return cli.usage_error(&format!(
                "--csv and --trace need one single-run scenario; {e}"
            ));
        }
    }

    let t0 = std::time::Instant::now();
    let ok = match command.as_str() {
        "list" => cmd_list(&selected),
        "run" => cmd_run(&selected, &opts),
        "fingerprint" => cmd_fingerprint(&selected),
        "check" => cmd_check(&selected),
        // `bless`, the only command left.
        _ => match cmd_bless(&selected) {
            Ok(()) => true,
            Err(e) => {
                eprintln!("error: {e}");
                false
            }
        },
    };
    eprintln!("[{:.2?}]", t0.elapsed());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
