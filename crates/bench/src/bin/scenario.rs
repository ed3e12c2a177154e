//! The scenario driver: runs `.peas` scenario files and maintains their
//! golden conformance snapshots.
//!
//! ```text
//! Usage: scenario <command> [name ...]
//!
//! Commands:
//!   list                 list the corpus with run counts
//!   run <name|all>       expand and run a scenario's full sweep, print a summary
//!                        (`--json`: emit one schema-1 report line per run,
//!                        the same serialized form the result cache stores)
//!   fingerprint <name|all>  run the golden config, print its snapshot
//!   check [name|all]     compare fresh snapshots against scenarios/golden/ (exit 1 on drift)
//!   bless [name|all]     rewrite scenarios/golden/ snapshots from fresh runs
//! ```
//!
//! Names are file stems of files under `scenarios/` (e.g. `fig9`); `all`
//! (the default for `check` and `bless`) covers the whole corpus.

use std::env;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use peas_bench::model_gate::model_snapshot;
use peas_scenario::{first_divergence, load_compiled, CompiledScenario, Snapshot};
use peas_sim::{encode_report, Runner};

/// The scenario corpus directory, anchored at the workspace root so the
/// binary works from any working directory.
fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

/// Where a scenario's golden snapshot lives.
fn golden_path(dir: &Path, name: &str) -> PathBuf {
    dir.join("golden").join(format!("{name}.golden"))
}

/// Loads the whole corpus (sorted by file name for deterministic order).
fn load_corpus(dir: &Path) -> Result<Vec<(String, CompiledScenario)>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "peas"))
        .collect();
    paths.sort();
    let mut corpus = Vec::with_capacity(paths.len());
    for path in paths {
        let stem = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let compiled = load_compiled(&path).map_err(|e| e.to_string())?;
        corpus.push((stem, compiled));
    }
    Ok(corpus)
}

/// Resolves the requested names (or the whole corpus for `all`/empty).
fn select(
    corpus: Vec<(String, CompiledScenario)>,
    names: &[String],
) -> Result<Vec<(String, CompiledScenario)>, String> {
    if names.is_empty() || names.iter().any(|n| n == "all") {
        return Ok(corpus);
    }
    let mut selected = Vec::new();
    for name in names {
        match corpus.iter().find(|(stem, _)| stem == name) {
            Some(found) => selected.push(found.clone()),
            None => {
                let known: Vec<&str> = corpus.iter().map(|(s, _)| s.as_str()).collect();
                return Err(format!(
                    "unknown scenario `{name}` (known: {})",
                    known.join(", ")
                ));
            }
        }
    }
    Ok(selected)
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

fn cmd_list(corpus: &[(String, CompiledScenario)]) {
    for (stem, scenario) in corpus {
        if let Some(spec) = &scenario.model {
            let kind = if scenario.trace.is_some() {
                "trace replay"
            } else {
                "exhaustive exploration"
            };
            println!("{stem:<12} {:>4} nodes  model world ({kind})", spec.nodes);
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
        println!(
            "{stem:<12} {:>4} nodes  {:>3} runs  {sweep}",
            scenario.base.node_count,
            runs.len()
        );
    }
}

fn cmd_run(selected: &[(String, CompiledScenario)], json: bool) -> bool {
    let mut ok = true;
    for (stem, scenario) in selected {
        if scenario.model.is_some() {
            // Model scenarios have no simulation runs; their "run" is
            // the exploration/replay snapshot itself.
            match model_snapshot(scenario) {
                Ok(snapshot) => print!("{}", snapshot.render(stem)),
                Err(e) => {
                    eprintln!("{stem}: {e}");
                    ok = false;
                }
            }
            continue;
        }
        let runs = scenario.runs();
        if !json {
            println!("{stem}: {} runs", runs.len());
        }
        let labels: Vec<String> = runs.iter().map(|r| r.label.clone()).collect();
        let configs = runs.into_iter().map(|r| r.config).collect();
        let reports = Runner::configs(configs).run();
        for (label, report) in labels.iter().zip(&reports) {
            if json {
                println!("{}", encode_report(report));
            } else {
                println!(
                    "  {label:<40} cov1-life {:>9.1} s  wakeups {:>6}  consumed {:>8.2} J",
                    report.coverage_lifetime(1, 0.9),
                    report.total_wakeups(),
                    report.consumed_j,
                );
            }
        }
    }
    ok
}

fn cmd_fingerprint(selected: &[(String, CompiledScenario)]) -> bool {
    let mut ok = true;
    for (stem, scenario) in selected {
        match snapshot_of(scenario) {
            Ok(snapshot) => print!("{}", snapshot.render(stem)),
            Err(e) => {
                eprintln!("{stem}: {e}");
                ok = false;
            }
        }
    }
    ok
}

fn cmd_check(dir: &Path, selected: &[(String, CompiledScenario)]) -> bool {
    let mut clean = true;
    for (stem, scenario) in selected {
        let path = golden_path(dir, stem);
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
        let actual = match snapshot_of(scenario) {
            Ok(snapshot) => snapshot,
            Err(e) => {
                eprintln!("{stem}: {e}");
                clean = false;
                continue;
            }
        };
        match first_divergence(&expected, &actual) {
            None => println!("{stem}: ok"),
            Some(divergence) => {
                eprintln!("{stem}: DRIFT at {divergence} (golden: {})", path.display());
                clean = false;
            }
        }
    }
    clean
}

fn cmd_bless(dir: &Path, selected: &[(String, CompiledScenario)]) -> Result<(), String> {
    let golden_dir = dir.join("golden");
    std::fs::create_dir_all(&golden_dir)
        .map_err(|e| format!("cannot create {}: {e}", golden_dir.display()))?;
    for (stem, scenario) in selected {
        let snapshot = snapshot_of(scenario)?;
        let path = golden_path(dir, stem);
        std::fs::write(&path, snapshot.render(stem))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let headline = snapshot
            .get("fingerprint")
            .or_else(|| snapshot.get("canon_hash"))
            .or_else(|| snapshot.get("final_state_hash"))
            .unwrap_or("?");
        println!("{stem}: blessed {} ({headline})", path.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        eprintln!("usage: scenario <list|run|fingerprint|check|bless> [name ...|all] [--json]");
        return ExitCode::FAILURE;
    };
    let json = args.iter().any(|a| a == "--json");
    let names: Vec<String> = args[1..]
        .iter()
        .filter(|a| a.as_str() != "--json")
        .cloned()
        .collect();
    let dir = corpus_dir();

    let corpus = match load_corpus(&dir) {
        Ok(corpus) => corpus,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let selected = match select(corpus, &names) {
        Ok(selected) => selected,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let t0 = std::time::Instant::now();
    let ok = match command {
        "list" => {
            cmd_list(&selected);
            true
        }
        "run" => cmd_run(&selected, json),
        "fingerprint" => cmd_fingerprint(&selected),
        "check" => cmd_check(&dir, &selected),
        "bless" => match cmd_bless(&dir, &selected) {
            Ok(()) => true,
            Err(e) => {
                eprintln!("error: {e}");
                false
            }
        },
        other => {
            eprintln!("unknown command `{other}`; expected list, run, fingerprint, check or bless");
            false
        }
    };
    eprintln!("[{:.2?}]", t0.elapsed());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
