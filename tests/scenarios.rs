//! Tier-1 scenario conformance: every `.peas` file under `scenarios/`
//! must (a) load and compile, (b) reproduce its committed golden
//! snapshot exactly, and (c) — for the paper sweeps, which the `paper`
//! binary reads from these files — expand to exactly the paper's grid
//! (Section 5.2) of `ScenarioConfig::paper` configs, proven down to the
//! event-stream fingerprint.
//!
//! On drift the failure message names the scenario file and the first
//! diverging snapshot field; regenerate deliberately with
//! `cargo run --release -p peas-bench --bin scenario -- bless`.

use std::path::{Path, PathBuf};

use peas_repro::des::time::SimTime;
use peas_repro::scenario::{
    first_divergence, load_compiled, sample_fingerprint, CompiledScenario, Snapshot,
};
use peas_repro::simulation::{ScenarioConfig, World};

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn corpus_paths() -> Vec<PathBuf> {
    let dir = repo_root().join("scenarios");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("scenarios/ directory exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "peas"))
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 8,
        "the scenario corpus must hold at least 8 scenarios, found {}",
        paths.len()
    );
    paths
}

fn load(path: &Path) -> CompiledScenario {
    load_compiled(path).unwrap_or_else(|e| panic!("{} failed to compile: {e}", path.display()))
}

/// Loads a corpus scenario by file name. Takes the full `x.peas` name so
/// every scenario this suite exercises is greppable by its file name
/// (peas-lint's d4-scenario-drift counts exactly those references).
fn load_by_name(file_name: &str) -> CompiledScenario {
    load(&repo_root().join("scenarios").join(file_name))
}

/// The committed corpus roster. Listing each file name here both documents
/// the corpus and anchors every scenario as "referenced by a test" for the
/// d4-scenario-drift lint — adding a scenario without wiring it in (or at
/// minimum adding it to this list) is a lint failure, and removing one
/// without updating this list fails here.
#[test]
fn corpus_contains_the_documented_scenarios() {
    let expected = [
        "base-paper.peas",
        "clustered.peas",
        "events.peas",
        "fig12.peas",
        "fig9.peas",
        "model-3node.peas",
        "model-4node.peas",
        "model-trace-exchange.peas",
        "scale-1m.peas",
        "shadowing.peas",
        "smoke.peas",
        "sweep-smoke.peas",
        "table1.peas",
        "terrain.peas",
    ];
    let actual: Vec<String> = corpus_paths()
        .iter()
        .filter_map(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()))
        .collect();
    assert_eq!(
        actual, expected,
        "scenarios/ roster changed; update this list"
    );
}

/// (a) + (b): the whole corpus compiles and matches its committed golden
/// snapshots, field by field.
#[test]
fn corpus_matches_committed_golden_snapshots() {
    for path in corpus_paths() {
        let scenario = load(&path);
        let stem = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let golden_path = repo_root()
            .join("scenarios/golden")
            .join(format!("{stem}.golden"));
        let committed = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
            panic!(
                "scenario {} has no golden snapshot at {} ({e}); run \
                 `cargo run --release -p peas-bench --bin scenario -- bless {stem}`",
                path.display(),
                golden_path.display()
            )
        });
        let expected = Snapshot::parse(&committed)
            .unwrap_or_else(|e| panic!("{}: malformed golden: {e}", golden_path.display()));
        // Model scenarios snapshot an exploration/replay outcome; the
        // rest snapshot a golden-config simulation.
        let actual = if scenario.model.is_some() {
            peas_bench::model_gate::model_snapshot(&scenario)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
        } else {
            Snapshot::of_report(&World::new(scenario.golden_config()).run())
        };
        if let Some(divergence) = first_divergence(&expected, &actual) {
            panic!(
                "scenario {} drifted from its golden snapshot: {divergence}. \
                 If the change is deliberate, re-bless with \
                 `cargo run --release -p peas-bench --bin scenario -- bless {stem}`",
                path.display(),
            );
        }
    }
}

/// The paper's five runs per point (Section 5.2).
const PAPER_SEEDS: [u64; 5] = [101, 102, 103, 104, 105];

/// The fig9 scenario is the paper's deployment sweep behind Figures
/// 9-11 and Table 1: N in {160, 320, 480, 640, 800} at a failure rate of
/// 10.66 per 5000 s, five seeds per point, values-major.
#[test]
fn fig9_scenario_equals_rust_deployment_sweep() {
    let scenario = load_by_name("fig9.peas");
    let expected: Vec<ScenarioConfig> = [160, 320, 480, 640, 800]
        .into_iter()
        .flat_map(|n| PAPER_SEEDS.map(|seed| ScenarioConfig::paper(n).with_seed(seed)))
        .collect();
    let actual: Vec<ScenarioConfig> = scenario.runs().into_iter().map(|r| r.config).collect();
    assert_eq!(
        actual, expected,
        "fig9.peas must expand to exactly the paper's deployment sweep"
    );
}

/// The fig12 scenario is the paper's failure-rate sweep behind Figures
/// 12-14: N = 480, rates 5.33 x {1..9} per 5000 s, five seeds per point.
#[test]
fn fig12_scenario_equals_rust_failure_sweep() {
    let scenario = load_by_name("fig12.peas");
    let expected: Vec<ScenarioConfig> = [5.33, 10.66, 16.0, 21.33, 26.66, 32.0, 37.33, 42.66, 48.0]
        .into_iter()
        .flat_map(|rate| {
            PAPER_SEEDS.map(|seed| {
                ScenarioConfig::paper(480)
                    .with_failure_rate(rate)
                    .with_seed(seed)
            })
        })
        .collect();
    let actual: Vec<ScenarioConfig> = scenario.runs().into_iter().map(|r| r.config).collect();
    assert_eq!(
        actual, expected,
        "fig12.peas must expand to exactly the paper's failure sweep"
    );
}

/// Table 1 reads off the same sweep as Figure 9; its scenario extends
/// fig9.peas and must expand identically.
#[test]
fn table1_scenario_equals_fig9_expansion() {
    let fig9: Vec<ScenarioConfig> = load_by_name("fig9.peas")
        .runs()
        .into_iter()
        .map(|r| r.config)
        .collect();
    let table1: Vec<ScenarioConfig> = load_by_name("table1.peas")
        .runs()
        .into_iter()
        .map(|r| r.config)
        .collect();
    assert_eq!(table1, fig9);
}

/// Beyond config equality: one sweep point actually *runs* to the same
/// event-stream fingerprint as the hand-built Rust config (horizons
/// truncated identically to keep tier-1 fast).
#[test]
fn sweep_point_fingerprints_are_byte_identical() {
    let scenario = load_by_name("fig9.peas");
    let runs = scenario.runs();
    // Point N = 320, seed 102: runs are ordered values-major.
    let mut from_dsl = runs[6].config.clone();
    assert_eq!((from_dsl.node_count, from_dsl.seed), (320, 102));
    let mut from_rust = ScenarioConfig::paper(320).with_seed(102);
    from_dsl.horizon = SimTime::from_secs(600);
    from_rust.horizon = SimTime::from_secs(600);
    assert_eq!(
        sample_fingerprint(&World::new(from_dsl).run()),
        sample_fingerprint(&World::new(from_rust).run()),
        "fig9.peas N=320/seed=102 must replay the Rust config bit for bit"
    );
}

/// smoke.peas is the declarative twin of ScenarioConfig::small().
#[test]
fn smoke_scenario_equals_small_preset() {
    let scenario = load_by_name("smoke.peas");
    assert_eq!(scenario.base, ScenarioConfig::small());
}

/// Every example's sibling .peas compiles to the exact config the
/// example used to build in Rust, and the quickstart twin replays to the
/// same fingerprint end to end.
#[test]
fn example_scenarios_match_their_rust_twins() {
    let example = |name: &str| load(&repo_root().join("examples").join(format!("{name}.peas")));

    // quickstart: paper(160), seed 42.
    let quickstart = example("quickstart");
    assert_eq!(quickstart.base, ScenarioConfig::paper(160).with_seed(42));

    // field_map: paper(320), seed 5.
    assert_eq!(
        example("field_map").base,
        ScenarioConfig::paper(320).with_seed(5)
    );

    // animal_tracking: paper(320), seed 7, lambda_d = 1/300, no GRAB.
    let mut tracking = ScenarioConfig::paper(320).with_seed(7);
    tracking.peas.desired_rate = 1.0 / 300.0;
    tracking.grab = None;
    assert_eq!(example("animal_tracking").base, tracking);

    // harsh_environment: paper(480), seed 3, no GRAB, sweeping the rate.
    let harsh: Vec<ScenarioConfig> = example("harsh_environment")
        .runs()
        .into_iter()
        .map(|r| r.config)
        .collect();
    let harsh_expected: Vec<ScenarioConfig> = [5.33, 16.0, 26.66, 37.33, 48.0]
        .iter()
        .map(|&rate| {
            let mut c = ScenarioConfig::paper(480)
                .with_failure_rate(rate)
                .with_seed(3);
            c.grab = None;
            c
        })
        .collect();
    assert_eq!(harsh, harsh_expected);

    // boot_phase: paper(320), seed 11, no GRAB/failures, 400 s horizon,
    // sweeping lambda0 over {0.012, 0.1}.
    let boot: Vec<ScenarioConfig> = example("boot_phase")
        .runs()
        .into_iter()
        .map(|r| r.config)
        .collect();
    let boot_expected: Vec<ScenarioConfig> = [0.012, 0.1]
        .iter()
        .map(|&rate| {
            let mut c = ScenarioConfig::paper(320)
                .with_failure_rate(0.0)
                .with_seed(11);
            c.grab = None;
            c.peas.initial_rate = rate;
            c.horizon = SimTime::from_secs(400);
            c
        })
        .collect();
    assert_eq!(boot, boot_expected);

    // Head-to-head smoke: the quickstart twin replays to the same
    // fingerprint as the Rust-built config on a truncated horizon.
    let mut dsl = quickstart.base;
    let mut rust = ScenarioConfig::paper(160).with_seed(42);
    dsl.horizon = SimTime::from_secs(500);
    rust.horizon = SimTime::from_secs(500);
    assert_eq!(
        sample_fingerprint(&World::new(dsl).run()),
        sample_fingerprint(&World::new(rust).run())
    );
}
