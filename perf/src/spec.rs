//! What the benchmark is. `BENCHMARK.json` at the repository root names
//! the workloads and the metrics with their units, directions and
//! regression bounds. It is compiled in and checked when the harness
//! starts, so the harness cannot measure against a different table than
//! the one that file states. This module adds what that file does not
//! hold: how each workload turns a seed into work, and the correctness
//! pins of each workload's default seed.

use std::sync::OnceLock;

use peas_des::time::SimTime;
use peas_geom::Field;
use peas_scenario::{compile, parse, CompiledScenario, ScenarioDoc};
use peas_sim::report_json::{parse_json, Json};
use peas_sim::ScenarioConfig;

/// Nodes per m² in the paper's evaluation (§5.1: 480 nodes on 50 × 50 m).
pub const PAPER_DENSITY: f64 = 0.192;

/// Side in whole meters of the square field that holds `nodes` sensors at
/// [`PAPER_DENSITY`]. `scenarios/scale-1m.peas` sizes its field this way.
pub fn paper_density_side(nodes: usize) -> f64 {
    (nodes as f64 / PAPER_DENSITY).sqrt().round()
}

/// End of the boot window every simulated workload reports, in simulated
/// seconds: the first working set forms within it (λ₀ = 0.1).
pub const BOOT_END_S: u64 = 20;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric as `BENCHMARK.json` defines it.
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression; per-layer metrics
    /// have none.
    pub bound: Option<f64>,
}

/// The workload and metric tables of `BENCHMARK.json`.
#[derive(Debug)]
pub struct Spec {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Each workload's name and why it exists.
    pub workloads: Vec<(String, String)>,
}

impl Spec {
    /// The end-to-end or per-layer metric called `name`.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }

    /// Why workload `name` exists.
    pub fn why(&self, name: &str) -> &str {
        self.workloads
            .iter()
            .find(|(n, _)| n == name)
            .map_or("", |(_, why)| why)
    }
}

/// The largest regression bound a metric may declare.
const MAX_BOUND: f64 = 0.25;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

static SPEC: OnceLock<Result<Spec, String>> = OnceLock::new();

/// The compiled-in `BENCHMARK.json`, or what is wrong with it.
pub fn load() -> Result<&'static Spec, String> {
    SPEC.get_or_init(|| read_spec(BENCHMARK_JSON))
        .as_ref()
        .map_err(|e| format!("BENCHMARK.json: {e}"))
}

/// [`load`], once `main` has checked that it succeeds.
pub fn get() -> &'static Spec {
    load().unwrap_or_else(|e| panic!("{e}"))
}

fn text<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    match v.get(key) {
        Some(Json::Str(s)) => Ok(s),
        _ => Err(format!("`{key}` must be a string in {v:?}")),
    }
}

fn list<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    match v.get(key) {
        Some(Json::Arr(items)) => Ok(items),
        _ => Err(format!("`{key}` must be a list")),
    }
}

fn metric(entry: &Json, bounded: bool) -> Result<Metric, String> {
    let name = text(entry, "name")?.to_string();
    let better = match text(entry, "better")? {
        "lower" => Better::Lower,
        "higher" => Better::Higher,
        other => return Err(format!("{name}: `better` is `{other}`")),
    };
    let bound = match (bounded, entry.get("bound")) {
        (false, _) => None,
        (true, Some(Json::Num(raw))) => match raw.parse::<f64>() {
            Ok(b) if b > 0.0 && b <= MAX_BOUND => Some(b),
            _ => return Err(format!("{name}: bound {raw} is outside (0, {MAX_BOUND}]")),
        },
        (true, _) => return Err(format!("{name}: no numeric bound")),
    };
    Ok(Metric {
        unit: text(entry, "unit")?.to_string(),
        name,
        better,
        bound,
    })
}

/// Parses the tables and checks them against this harness: every
/// workload in the file has a definition here and the reverse, and names
/// are unique and made of `[A-Za-z0-9_.-]`.
fn read_spec(src: &str) -> Result<Spec, String> {
    let json = parse_json(src)?;
    let end_to_end = list(&json, "end_to_end")?
        .iter()
        .map(|m| metric(m, true))
        .collect::<Result<Vec<_>, _>>()?;
    let per_layer = list(&json, "per_layer")?
        .iter()
        .map(|m| metric(m, false))
        .collect::<Result<Vec<_>, _>>()?;
    let workloads = list(&json, "workloads")?
        .iter()
        .map(|w| Ok((text(w, "name")?.to_string(), text(w, "why")?.to_string())))
        .collect::<Result<Vec<_>, String>>()?;
    for (name, _) in &workloads {
        if workload(name).is_none() {
            return Err(format!(
                "workload `{name}` has no definition in the harness"
            ));
        }
    }
    for w in &WORKLOADS {
        if !workloads.iter().any(|(n, _)| n == w.name) {
            return Err(format!("workload `{}` is missing", w.name));
        }
    }
    let mut seen: Vec<&str> = Vec::new();
    let names = end_to_end
        .iter()
        .chain(&per_layer)
        .map(|m| m.name.as_str())
        .chain(workloads.iter().map(|(n, _)| n.as_str()));
    for name in names {
        let well_formed = name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
        if !well_formed || seen.contains(&name) {
            return Err(format!("name `{name}` is malformed or used twice"));
        }
        seen.push(name);
    }
    Ok(Spec {
        end_to_end,
        per_layer,
        workloads,
    })
}

/// How a workload turns a seed into work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `scenarios/base-paper.peas` unchanged; one job per seed, ten
    /// consecutive seeds per cycle.
    Paper,
    /// The `scenarios/scale-1m.peas` config at `nodes` sensors on a field
    /// resized to paper density, run to `horizon_s`.
    Scale { nodes: usize, horizon_s: u64 },
    /// `scenarios/fig12.peas` submitted one seed at a time: a job is the
    /// sweep's nine failure rates at one seed, five consecutive seeds per
    /// cycle.
    Sweep,
}

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// The seed `perf run` uses when `--seed` is not given; its results
    /// are pinned in [`PINS`].
    pub default_seed: u64,
    /// Timed repetitions per workload in `perf run`.
    pub reps: usize,
    /// Width of the traced run's `run_until` slices, simulated seconds.
    pub slice_s: u64,
    /// Start of the steady-state window the traced run reports.
    pub steady_from_s: u64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper-480",
        kind: Kind::Paper,
        default_seed: 101,
        reps: 5,
        slice_s: 1000,
        steady_from_s: 600,
    },
    Workload {
        name: "scale-100k",
        kind: Kind::Scale {
            nodes: 100_000,
            horizon_s: 1800,
        },
        default_seed: 1,
        reps: 3,
        slice_s: 100,
        steady_from_s: 600,
    },
    Workload {
        name: "scale-1m",
        kind: Kind::Scale {
            nodes: 1_000_000,
            horizon_s: BOOT_END_S,
        },
        default_seed: 1,
        reps: 3,
        slice_s: 5,
        steady_from_s: 10,
    },
    Workload {
        name: "sweep-cache",
        kind: Kind::Sweep,
        default_seed: 101,
        reps: 3,
        slice_s: 1000,
        steady_from_s: 600,
    },
];

/// The workload called `name`.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What a finished job must reproduce exactly: events processed, total
/// wakeups and frames sent (summed over the shards of a sweep), the
/// golden `sample_fingerprint` (FNV-1a over the shards' fingerprints for
/// a sweep), and FNV-1a over the job's answer bytes (one schema-1 line
/// per shard), which also covers runs too short to take a sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Facts {
    pub events: u64,
    pub wakeups: u64,
    pub frames: u64,
    pub fingerprint: u64,
    pub answer: u64,
}

/// The facts of `workload` under job seed `seed`, recorded from a
/// release build. Any change that alters a simulated run shows here.
pub struct Pin {
    pub workload: &'static str,
    pub seed: u64,
    pub facts: Facts,
}

const fn pin(workload: &'static str, seed: u64, facts: [u64; 5]) -> Pin {
    Pin {
        workload,
        seed,
        facts: Facts {
            events: facts[0],
            wakeups: facts[1],
            frames: facts[2],
            fingerprint: facts[3],
            answer: facts[4],
        },
    }
}

#[rustfmt::skip]
pub const PINS: &[Pin] = &[
    pin("paper-480", 101, [552819, 29841, 201799, 0x26C0419DC6B05B12, 0x6945D0C282DFAE50]),
    pin("paper-480", 102, [563941, 29701, 206270, 0xA4FDECE669D335A7, 0xB6ED5335E291C54D]),
    pin("paper-480", 103, [612984, 30595, 226574, 0x36E1F529A400AFB5, 0xFCB210FB10F2091F]),
    pin("paper-480", 104, [584010, 30744, 214735, 0x57343F718C8DD7E2, 0x14974E45EE787D0D]),
    pin("paper-480", 105, [571811, 30819, 211307, 0x680EF1DA8067A20E, 0x30663B731F378BE3]),
    pin("paper-480", 106, [587961, 29298, 215908, 0x940B7495B0B3863B, 0x44C4A3E4111F8AE0]),
    pin("paper-480", 107, [607166, 31941, 223973, 0x29626273E64F6241, 0x78FE98412A81FB63]),
    pin("paper-480", 108, [605099, 31308, 222044, 0x41F311DB590A1F2A, 0xEA4AAC555FC4AF78]),
    pin("paper-480", 109, [576270, 31590, 210226, 0x5E83EEE6CC95302B, 0xA09CC7093B093C81]),
    pin("paper-480", 110, [594059, 31974, 216436, 0xA5201CD1D257857D, 0x6DB61B806804C459]),
    pin("scale-100k", 1, [17632009, 1404685, 6314613, 0x4BCAAC65F8F89294, 0x27ECA4754D0F0702]),
    // The 20 s run ends before the first 50 s sample, hence the
    // empty-stream fingerprint (the FNV-1a offset basis); the answer hash
    // still pins the run.
    pin("scale-1m", 1, [18523196, 1549070, 6443726, 0xCBF29CE484222325, 0xDEDB0A3713FF2AB6]),
    // Summed over the five jobs, these are the 45-run fig12 sweep's
    // 23742948 events, 1251945 wakeups and 8719077 frames.
    pin("sweep-cache", 101, [4618371, 242267, 1694873, 0xDF45E24FD37722E6, 0xE01B60FB05947D7D]),
    pin("sweep-cache", 102, [4709290, 253995, 1717489, 0x1A2E503E8FBB923D, 0x2C6173CCFCF497A2]),
    pin("sweep-cache", 103, [4801821, 251099, 1774062, 0x062001B449061151, 0x1201F9A2F277DE50]),
    pin("sweep-cache", 104, [4771711, 250669, 1748374, 0x77C6F29734E3E0B6, 0x8274FD308BB83E54]),
    pin("sweep-cache", 105, [4841755, 253915, 1784279, 0xC8348CDBCE938357, 0x708C718120A7574B]),
];

/// The pinned facts of `workload` at job seed `seed`, if any.
pub fn pinned(workload: &str, seed: u64) -> Option<Facts> {
    PINS.iter()
        .find(|p| p.workload == workload && p.seed == seed)
        .map(|p| p.facts)
}

// The scenario sources are compiled in, so the harness reads nothing
// from its working directory.
const BASE_PAPER: &str = include_str!("../../scenarios/base-paper.peas");
const FIG12: &str = include_str!("../../scenarios/fig12.peas");
const SCALE_1M: &str = include_str!("../../scenarios/scale-1m.peas");

/// Parses an embedded scenario, overlaid on `base` when it `extends` one.
fn scenario(src: &str, name: &str, base: Option<&str>) -> CompiledScenario {
    let parsed = |src: &str| -> ScenarioDoc {
        parse(src).unwrap_or_else(|e| panic!("embedded scenario {name} does not parse: {e}"))
    };
    let doc = match base {
        Some(base) => ScenarioDoc::merge_over(&parsed(base), &parsed(src)),
        None => parsed(src),
    };
    compile(&doc, name).unwrap_or_else(|e| panic!("embedded scenario {name} does not compile: {e}"))
}

/// The seeds of one job cycle of `w` started from `seed`.
pub fn job_seeds(w: &Workload, seed: u64) -> Vec<u64> {
    let consecutive = |n: u64| (0..n).map(|k| seed.wrapping_add(k)).collect();
    match w.kind {
        Kind::Paper => consecutive(10),
        Kind::Sweep => consecutive(SWEEP_SEEDS),
        Kind::Scale { .. } => vec![seed],
    }
}

/// The labelled runs of the job of `w` at job seed `seed`.
pub fn job_runs(w: &Workload, seed: u64) -> Vec<(String, ScenarioConfig)> {
    match w.kind {
        Kind::Sweep => sweep_runs(seed),
        Kind::Paper | Kind::Scale { .. } => vec![(format!("seed={seed}"), sim_config(w, seed))],
    }
}

/// The simulation config of workload `w` at job seed `seed`; for the
/// sweep workload, the config of its first shard.
pub fn sim_config(w: &Workload, seed: u64) -> ScenarioConfig {
    match w.kind {
        Kind::Paper => scenario(BASE_PAPER, "base-paper", None)
            .base
            .with_seed(seed),
        Kind::Scale { nodes, horizon_s } => {
            let tiers = scenario(SCALE_1M, "scale-1m", None).runs();
            let tier = tiers
                .into_iter()
                .find(|r| r.config.node_count == nodes)
                .unwrap_or_else(|| panic!("scale-1m.peas has no {nodes}-node tier"));
            let side = paper_density_side(nodes);
            let mut cfg = tier.config.with_seed(seed);
            cfg.field = Field::new(side, side);
            cfg.horizon = SimTime::from_secs(horizon_s);
            cfg
        }
        Kind::Sweep => sweep_runs(seed)
            .into_iter()
            .next()
            .map(|(_, cfg)| cfg)
            .unwrap_or_else(|| unreachable!("fig12.peas declares a sweep")),
    }
}

/// Seeds `scenarios/fig12.peas` runs at each failure rate, and so the
/// sweep workload's jobs per cycle.
const SWEEP_SEEDS: u64 = 5;

/// `scenarios/fig12.peas` expanded at the one seed `seed`: its nine
/// failure rates. The cycle from the default seed 101 covers the
/// scenario's own 45 runs.
pub fn sweep_runs(seed: u64) -> Vec<(String, ScenarioConfig)> {
    let mut fig12 = scenario(FIG12, "fig12", Some(BASE_PAPER));
    if let Some(sweep) = fig12.sweep.as_mut() {
        sweep.seeds = vec![seed];
    }
    fig12
        .runs()
        .into_iter()
        .map(|r| (r.label, r.config))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_density_sizing_matches_the_scale_scenario() {
        assert_eq!(paper_density_side(1_000_000), 2282.0);
        assert_eq!(paper_density_side(100_000), 722.0);
        let scale = scenario(SCALE_1M, "scale-1m", None);
        assert_eq!(scale.base.field.width(), paper_density_side(1_000_000));
        // The paper's own field: 480 nodes on 50 × 50 m.
        assert_eq!(paper_density_side(480), 50.0);
    }

    #[test]
    fn workload_configs_have_the_documented_shape() {
        let paper = sim_config(&WORKLOADS[0], 7);
        assert_eq!((paper.node_count, paper.seed), (480, 7));
        assert!(paper.grab.is_some() && paper.failure.is_some());
        let s100k = sim_config(&WORKLOADS[1], 1);
        assert_eq!(s100k.node_count, 100_000);
        assert_eq!(s100k.field.width(), 722.0);
        assert_eq!(s100k.horizon, SimTime::from_secs(1800));
        let sweep = sweep_runs(103);
        assert_eq!(sweep.len(), 9);
        assert!(sweep.iter().all(|(_, cfg)| cfg.seed == 103));
        assert_eq!(job_seeds(&WORKLOADS[0], 101).len(), 10);
        assert_eq!(job_seeds(&WORKLOADS[3], 101), [101, 102, 103, 104, 105]);
        assert_eq!(job_runs(&WORKLOADS[2], 1).len(), 1);
    }

    #[test]
    fn benchmark_json_matches_the_harness() {
        let spec = load().unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(spec.workloads.len(), WORKLOADS.len());
        let setup = spec
            .metric("setup_s")
            .expect("setup_s is an end-to-end metric");
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn malformed_tables_are_refused() {
        let doc = |workloads: &str, e2e: &str| {
            format!("{{\"workloads\": [{workloads}], \"end_to_end\": [{e2e}], \"per_layer\": []}}")
        };
        let all = WORKLOADS
            .iter()
            .map(|w| format!("{{\"name\": \"{}\", \"why\": \"w\"}}", w.name))
            .collect::<Vec<_>>()
            .join(",");
        let m = |name: &str, better: &str, bound: &str| {
            format!("{{\"name\": \"{name}\", \"unit\": \"s\", \"better\": \"{better}\", \"bound\": {bound}}}")
        };
        assert!(read_spec(&doc(&all, &m("setup_s", "lower", "0.25"))).is_ok());
        for bad in [
            doc(&all, &m("setup_s", "lower", "0.3")),
            doc(&all, &m("setup_s", "lower", "0")),
            doc(&all, &m("setup_s", "down", "0.1")),
            doc(&all, &m("setup s", "lower", "0.1")),
            doc(
                &all,
                &[m("a", "lower", "0.1"), m("a", "lower", "0.1")].join(","),
            ),
            doc(
                "{\"name\": \"paper-480\", \"why\": \"w\"}",
                &m("a", "lower", "0.1"),
            ),
            doc(
                &format!("{all}, {{\"name\": \"nope\", \"why\": \"w\"}}"),
                "",
            ),
        ] {
            assert!(read_spec(&bad).is_err(), "{bad} must be refused");
        }
    }
}
