//! The schema compiler: a flattened [`ScenarioDoc`] becomes a
//! [`CompiledScenario`] holding ready-to-run [`ScenarioConfig`]s.
//!
//! Unspecified keys default to [`ScenarioConfig::paper`] for the declared
//! `[deployment] count`, so a scenario file states only what *differs*
//! from Section 5 of the paper — and a file that states nothing compiles
//! to exactly `ScenarioConfig::paper`'s config, which is what makes the
//! byte-identical-fingerprint equivalence tests possible.
//!
//! Diagnostics are part of the contract: messages are stable strings
//! pinned by unit tests (`tests/errors.rs`), and every one carries the
//! line/column of the offending key.

use crate::ast::{Entry, ScenarioDoc, Value};
use crate::error::ScenarioError;
use peas::FixedPower;
use peas_des::time::{SimDuration, SimTime};
use peas_geom::{Deployment, Field};
use peas_radio::{
    HeightMap, PropagationSpec, TerrainSpec, DEFAULT_PATH_LOSS_EXP, DEFAULT_SIGMA_DB,
};
use peas_sim::{BatterySpec, EventWorkload, FailureConfig, ScenarioConfig};

/// Section names the compiler understands, in application order.
pub const SECTIONS: &[&str] = &[
    "scenario",
    "field",
    "deployment",
    "radio",
    "terrain",
    "energy",
    "peas",
    "grab",
    "failures",
    "traffic",
    "metrics",
    "model",
    "trace",
    "sweeps",
    "golden",
];

/// A parameter sweep declared by a `[sweeps]` section: one axis, a list
/// of values along it, and the seeds each point is replicated over.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// Section half of the `section.key` axis.
    pub section: String,
    /// Key half of the `section.key` axis.
    pub key: String,
    /// Values along the axis, in declaration order.
    pub values: Vec<Value>,
    /// Seeds each point runs under, in declaration order.
    pub seeds: Vec<u64>,
    /// One fully-compiled config per value (at the base seed).
    pub point_bases: Vec<ScenarioConfig>,
}

/// Overrides for the golden conformance run of a scenario, so the pinned
/// fingerprint can use a shorter horizon or a single sweep point while
/// the scenario proper keeps its paper-scale settings.
#[derive(Clone, Copy, Debug, Default)]
pub struct GoldenSpec {
    /// Seed override for the golden run.
    pub seed: Option<u64>,
    /// Horizon override for the golden run.
    pub horizon: Option<SimTime>,
    /// Which sweep point the golden run uses (index into `values`).
    pub point: Option<usize>,
}

/// Which pairs of a micro-world's nodes are within probing range of
/// each other (`[model] topology`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelTopology {
    /// Every pair of nodes is within `Rp` of each other.
    Clique,
    /// Only consecutively numbered nodes (`|i - j| == 1`) are in range.
    Chain,
}

/// A `[model]` section: parameters for the `peas-model` exhaustive
/// explorer. This crate only parses and validates the spec; the explorer
/// itself lives in `peas-model` (which depends on this crate, not the
/// other way around).
#[derive(Clone, Debug, PartialEq)]
pub struct ModelSpec {
    /// Number of nodes in the micro-world (defaults to `[deployment]
    /// count`; must be 2..=6 — the explorer is exhaustive, not sampled).
    pub nodes: u32,
    /// Which pairs are within probing range.
    pub topology: ModelTopology,
    /// Whether the explorer branches on losing each in-flight frame.
    pub loss: bool,
    /// How many node deaths the explorer may inject (0 = none).
    pub deaths: u32,
    /// State budget: exploration stops (without claiming a fixpoint)
    /// after this many distinct canonical states.
    pub max_states: usize,
}

/// A `[trace]` section: an ordered event trace to replay through the
/// micro-world instead of exploring. This is the format counterexamples
/// are emitted in; the strings are parsed by `peas-model`.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceSpec {
    /// Ordered event descriptions, e.g. `"fire 0 wake"`, `"deliver 0 2"`.
    pub events: Vec<String>,
    /// The invariant the replay is expected to violate (`"none"` or
    /// absent when the trace must replay clean).
    pub expect_violation: Option<String>,
}

/// One concrete run expanded from a scenario (a sweep point × seed, or
/// the single base run of a sweep-less scenario).
#[derive(Clone, Debug)]
pub struct SweepRun {
    /// Human-readable label, stable across runs.
    pub label: String,
    /// The fully-resolved configuration.
    pub config: ScenarioConfig,
}

/// A fully compiled scenario.
#[derive(Clone, Debug)]
pub struct CompiledScenario {
    /// Scenario name (`[scenario] name`, or the caller-provided default).
    pub name: String,
    /// The flattened document the scenario compiled from.
    pub doc: ScenarioDoc,
    /// The base configuration (ignoring any sweep).
    pub base: ScenarioConfig,
    /// The sweep, if `[sweeps]` was declared.
    pub sweep: Option<SweepSpec>,
    /// Golden-run overrides (empty if `[golden]` was absent).
    pub golden: GoldenSpec,
    /// The model-checking spec, if `[model]` was declared.
    pub model: Option<ModelSpec>,
    /// The replay trace, if `[trace]` was declared (requires `[model]`).
    pub trace: Option<TraceSpec>,
}

impl CompiledScenario {
    /// Expands the scenario into its concrete runs, in deterministic
    /// order: for each sweep value (in declaration order), each seed (in
    /// declaration order) — the order `paper` groups a sweep's reports
    /// into figure points in.
    pub fn runs(&self) -> Vec<SweepRun> {
        match &self.sweep {
            None => vec![SweepRun {
                label: self.name.clone(),
                config: self.base.clone(),
            }],
            Some(sw) => {
                let mut runs = Vec::with_capacity(sw.values.len() * sw.seeds.len());
                for (value, point) in sw.values.iter().zip(&sw.point_bases) {
                    for &seed in &sw.seeds {
                        runs.push(SweepRun {
                            label: format!("{}.{}={} seed={}", sw.section, sw.key, value, seed),
                            config: point.clone().with_seed(seed),
                        });
                    }
                }
                runs
            }
        }
    }

    /// The configuration the golden conformance run uses: the base (or
    /// the `[golden] point`-th sweep value) with the `[golden]` seed and
    /// horizon overrides applied.
    pub fn golden_config(&self) -> ScenarioConfig {
        let mut cfg = match (self.golden.point, &self.sweep) {
            (Some(i), Some(sw)) => sw.point_bases[i].clone(),
            _ => self.base.clone(),
        };
        if let Some(seed) = self.golden.seed {
            cfg.seed = seed;
        }
        if let Some(horizon) = self.golden.horizon {
            cfg.horizon = horizon;
        }
        cfg
    }
}

/// Compiles a flattened document (no unresolved `extends`) into a
/// [`CompiledScenario`]. `default_name` is used when the document does
/// not declare `[scenario] name` (callers pass the file stem).
///
/// # Errors
///
/// Returns a [`ScenarioError`] pointing at the first offending key for
/// unknown sections/keys, type mismatches, a missing `[deployment]`
/// section, malformed sweeps, or configs that fail semantic validation.
pub fn compile(doc: &ScenarioDoc, default_name: &str) -> Result<CompiledScenario, ScenarioError> {
    if let Some(ext) = &doc.extends {
        return Err(ScenarioError::at(
            ext.span,
            "document still has an unresolved `extends` (flatten it with the loader first)",
        ));
    }
    for section in &doc.sections {
        if !SECTIONS.contains(&section.name.as_str()) {
            return Err(ScenarioError::at(
                section.span,
                format!("unknown section [{}]", section.name),
            ));
        }
    }

    let base = compile_base(doc)?;
    let name = match doc.section("scenario").and_then(|s| s.get("name")) {
        Some(entry) => get_str("scenario", entry)?,
        None => default_name.to_string(),
    };

    let sweep = compile_sweep(doc, &base)?;
    let golden = compile_golden(doc, &sweep)?;
    let model = compile_model(doc, &base)?;
    let trace = compile_trace(doc, &model)?;

    Ok(CompiledScenario {
        name,
        doc: doc.clone(),
        base,
        sweep,
        golden,
        model,
        trace,
    })
}

/// Compiles every section except `[sweeps]`/`[golden]` into one config.
fn compile_base(doc: &ScenarioDoc) -> Result<ScenarioConfig, ScenarioError> {
    let deployment = doc.section("deployment").ok_or_else(|| {
        ScenarioError::whole_doc(
            "missing required section [deployment] (every scenario must declare `count`)",
        )
    })?;
    let count_entry = deployment
        .get("count")
        .ok_or_else(|| ScenarioError::at(deployment.span, "missing key `count` in [deployment]"))?;
    let count = get_usize("deployment", count_entry)?;

    let mut cfg = ScenarioConfig::paper(count);

    apply_scenario(doc, &mut cfg)?;
    apply_field(doc, &mut cfg)?;
    apply_deployment(doc, &mut cfg)?;
    apply_radio(doc, &mut cfg)?;
    apply_energy(doc, &mut cfg)?;
    apply_peas(doc, &mut cfg)?;
    apply_grab(doc, &mut cfg)?;
    apply_failures(doc, &mut cfg)?;
    apply_traffic(doc, &mut cfg)?;
    apply_metrics(doc, &mut cfg)?;

    cfg.validate()
        .map_err(|e| ScenarioError::whole_doc(format!("invalid scenario: {e}")))?;
    Ok(cfg)
}

fn apply_scenario(doc: &ScenarioDoc, cfg: &mut ScenarioConfig) -> Result<(), ScenarioError> {
    let Some(section) = doc.section("scenario") else {
        return Ok(());
    };
    for e in &section.entries {
        match e.key.as_str() {
            "name" => {
                get_str("scenario", e)?;
            }
            "seed" => cfg.seed = get_u64("scenario", e)?,
            "horizon" => cfg.horizon = SimTime::from_nanos(get_duration("scenario", e)?.as_nanos()),
            "sensing_range" => cfg.sensing_range = get_f64("scenario", e)?,
            "bitrate_bps" => cfg.bitrate_bps = get_u64("scenario", e)?,
            "loss_rate" => cfg.loss_rate = get_f64("scenario", e)?,
            _ => return Err(unknown_key("scenario", e)),
        }
    }
    Ok(())
}

fn apply_field(doc: &ScenarioDoc, cfg: &mut ScenarioConfig) -> Result<(), ScenarioError> {
    let Some(section) = doc.section("field") else {
        return Ok(());
    };
    let mut width = cfg.field.width();
    let mut height = cfg.field.height();
    for e in &section.entries {
        match e.key.as_str() {
            "width" => width = get_f64("field", e)?,
            "height" => height = get_f64("field", e)?,
            _ => return Err(unknown_key("field", e)),
        }
    }
    cfg.field = Field::new(width, height);
    Ok(())
}

fn apply_deployment(doc: &ScenarioDoc, cfg: &mut ScenarioConfig) -> Result<(), ScenarioError> {
    // Presence is checked in `compile_base`; `count` is already applied.
    let Some(section) = doc.section("deployment") else {
        return Ok(());
    };
    let mut kind: Option<(&Entry, String)> = None;
    let mut centers: Option<usize> = None;
    let mut std_dev: Option<f64> = None;
    for e in &section.entries {
        match e.key.as_str() {
            "count" => {}
            "kind" => kind = Some((e, get_str("deployment", e)?)),
            "centers" => centers = Some(get_usize("deployment", e)?),
            "std_dev" => std_dev = Some(get_f64("deployment", e)?),
            _ => return Err(unknown_key("deployment", e)),
        }
    }
    if let Some((entry, kind)) = kind {
        cfg.deployment = match kind.as_str() {
            "uniform" => Deployment::Uniform,
            "jittered-grid" => Deployment::JitteredGrid,
            "clustered" => {
                let (Some(centers), Some(std_dev)) = (centers, std_dev) else {
                    return Err(ScenarioError::at(
                        entry.span,
                        "clustered deployment requires `centers` and `std_dev`",
                    ));
                };
                Deployment::Clustered { centers, std_dev }
            }
            other => {
                return Err(ScenarioError::at(
                    entry.span,
                    format!(
                        "unknown deployment kind `{other}` (expected \"uniform\", \"jittered-grid\" or \"clustered\")"
                    ),
                ))
            }
        };
    }
    Ok(())
}

fn apply_radio(doc: &ScenarioDoc, cfg: &mut ScenarioConfig) -> Result<(), ScenarioError> {
    let mut kind: Option<(&Entry, String)> = None;
    let mut path_loss_exp = DEFAULT_PATH_LOSS_EXP;
    let mut sigma_db = DEFAULT_SIGMA_DB;
    let mut channel_seed = 0u64;
    if let Some(section) = doc.section("radio") {
        for e in &section.entries {
            match e.key.as_str() {
                // `model` is the canonical spelling; `channel` is the
                // pre-trait alias kept so existing scenarios stay valid.
                "model" | "channel" => kind = Some((e, get_str("radio", e)?)),
                "path_loss_exp" => path_loss_exp = get_f64("radio", e)?,
                "sigma_db" => sigma_db = get_f64("radio", e)?,
                "channel_seed" => channel_seed = get_u64("radio", e)?,
                _ => return Err(unknown_key("radio", e)),
            }
        }
    }
    let terrain_requested = match &kind {
        Some((_, kind)) => kind == "terrain",
        None => false,
    };
    if !terrain_requested {
        if let Some(terrain) = doc.section("terrain") {
            return Err(ScenarioError::at(
                terrain.span,
                "a [terrain] section requires `model = \"terrain\"` in [radio]",
            ));
        }
    }
    if let Some((entry, kind)) = kind {
        cfg.propagation = match kind.as_str() {
            "disc" => PropagationSpec::Disc,
            "shadowed" => PropagationSpec::Shadowed {
                path_loss_exp,
                sigma_db,
                seed: channel_seed,
            },
            "terrain" => compile_terrain(doc, entry, path_loss_exp)?,
            other => {
                return Err(ScenarioError::at(
                    entry.span,
                    format!(
                        "unknown propagation model `{other}` (expected \"disc\", \"shadowed\" or \"terrain\")"
                    ),
                ))
            }
        };
    }
    Ok(())
}

/// Compiles a `[terrain]` section into a [`PropagationSpec::Terrain`].
/// `model_entry` is the `[radio] model = "terrain"` entry, blamed when the
/// section is missing; `path_loss_exp` comes from `[radio]` so both
/// stochastic and terrain models share one exponent key.
fn compile_terrain(
    doc: &ScenarioDoc,
    model_entry: &Entry,
    path_loss_exp: f64,
) -> Result<PropagationSpec, ScenarioError> {
    let Some(section) = doc.section("terrain") else {
        return Err(ScenarioError::at(
            model_entry.span,
            "model \"terrain\" requires a [terrain] section",
        ));
    };
    let mut cols: Option<(&Entry, usize)> = None;
    let mut rows: Option<(&Entry, usize)> = None;
    let mut cell_size: Option<(&Entry, f64)> = None;
    let mut heights: Option<(&Entry, Vec<f64>)> = None;
    let mut seed: Option<(&Entry, u64)> = None;
    let mut amplitude: Option<(&Entry, f64)> = None;
    let mut hills: Option<usize> = None;
    let mut diffraction: Option<(&Entry, f64)> = None;
    let mut antenna_height: Option<(&Entry, f64)> = None;
    let mut wavelength: Option<(&Entry, f64)> = None;
    for e in &section.entries {
        match e.key.as_str() {
            "cols" => cols = Some((e, get_usize("terrain", e)?)),
            "rows" => rows = Some((e, get_usize("terrain", e)?)),
            "cell_size" => cell_size = Some((e, get_f64("terrain", e)?)),
            "heights" => {
                let values = get_list("terrain", e)?
                    .iter()
                    .map(|v| match v {
                        Value::Float(x) => Ok(*x),
                        Value::Int(i) => Ok(*i as f64),
                        other => Err(type_error("terrain", e, "a list of numbers", other)),
                    })
                    .collect::<Result<Vec<f64>, _>>()?;
                heights = Some((e, values));
            }
            "seed" => seed = Some((e, get_u64("terrain", e)?)),
            "amplitude" => amplitude = Some((e, get_f64("terrain", e)?)),
            "hills" => hills = Some(get_usize("terrain", e)?),
            "diffraction" => diffraction = Some((e, get_f64("terrain", e)?)),
            "antenna_height" => antenna_height = Some((e, get_f64("terrain", e)?)),
            "wavelength" => wavelength = Some((e, get_f64("terrain", e)?)),
            _ => return Err(unknown_key("terrain", e)),
        }
    }

    let missing =
        |key: &str| ScenarioError::at(section.span, format!("missing key `{key}` in [terrain]"));
    let (cols_entry, cols) = cols.ok_or_else(|| missing("cols"))?;
    let (rows_entry, rows) = rows.ok_or_else(|| missing("rows"))?;
    let (cell_entry, cell) = cell_size.ok_or_else(|| missing("cell_size"))?;
    if cols < 2 {
        return Err(ScenarioError::at(
            cols_entry.span,
            format!("terrain `cols` must be at least 2, got {cols}"),
        ));
    }
    if rows < 2 {
        return Err(ScenarioError::at(
            rows_entry.span,
            format!("terrain `rows` must be at least 2, got {rows}"),
        ));
    }
    if !(cell.is_finite() && cell > 0.0) {
        return Err(ScenarioError::at(
            cell_entry.span,
            format!("terrain `cell_size` must be positive, got {cell}"),
        ));
    }

    let height_map = match (&heights, &seed) {
        (Some((entry, _)), Some(_)) => {
            return Err(ScenarioError::at(
                entry.span,
                "terrain heights are either inline (`heights`) or generated (`seed`), not both",
            ))
        }
        (None, None) => {
            return Err(ScenarioError::at(
                section.span,
                "terrain needs a height map: inline `heights` or a generator `seed`",
            ))
        }
        (Some((entry, values)), None) => {
            if let Some((key, _)) = [
                ("amplitude", amplitude.is_some()),
                ("hills", hills.is_some()),
            ]
            .into_iter()
            .find(|&(_, set)| set)
            {
                return Err(ScenarioError::at(
                    entry.span,
                    format!("terrain `{key}` only applies to generated heights (`seed`)"),
                ));
            }
            let want = cols * rows;
            if values.len() != want {
                return Err(ScenarioError::at(
                    entry.span,
                    format!(
                        "terrain `heights` has {} samples but {cols} cols x {rows} rows = {want}",
                        values.len()
                    ),
                ));
            }
            if let Some(i) = values.iter().position(|v| !v.is_finite()) {
                return Err(ScenarioError::at(
                    entry.span,
                    format!("terrain `heights` sample {i} is not finite"),
                ));
            }
            HeightMap::Inline(values.clone())
        }
        (None, Some((_, seed))) => {
            if let Some((entry, a)) = amplitude {
                if !(a.is_finite() && a >= 0.0) {
                    return Err(ScenarioError::at(
                        entry.span,
                        format!("terrain `amplitude` must be finite and non-negative, got {a}"),
                    ));
                }
            }
            // Defaults for amplitude/hills live in `TerrainSpec::generated`.
            let HeightMap::Generated {
                amplitude: default_amplitude,
                hills: default_hills,
                ..
            } = TerrainSpec::generated(cols, rows, cell, *seed).heights
            else {
                unreachable!("TerrainSpec::generated always yields generated heights")
            };
            HeightMap::Generated {
                seed: *seed,
                amplitude: amplitude.map_or(default_amplitude, |(_, a)| a),
                hills: hills.unwrap_or(default_hills),
            }
        }
    };

    let mut spec = TerrainSpec::generated(cols, rows, cell, 0);
    spec.heights = height_map;
    spec.path_loss_exp = path_loss_exp;
    if let Some((entry, d)) = diffraction {
        if !(d.is_finite() && d >= 0.0) {
            return Err(ScenarioError::at(
                entry.span,
                format!("terrain `diffraction` must be finite and non-negative, got {d}"),
            ));
        }
        spec.diffraction = d;
    }
    if let Some((entry, h)) = antenna_height {
        if !(h.is_finite() && h >= 0.0) {
            return Err(ScenarioError::at(
                entry.span,
                format!("terrain `antenna_height` must be finite and non-negative, got {h}"),
            ));
        }
        spec.antenna_height = h;
    }
    if let Some((entry, w)) = wavelength {
        if !(w.is_finite() && w > 0.0) {
            return Err(ScenarioError::at(
                entry.span,
                format!("terrain `wavelength` must be positive, got {w}"),
            ));
        }
        spec.wavelength = w;
    }
    Ok(PropagationSpec::Terrain(spec))
}

fn apply_energy(doc: &ScenarioDoc, cfg: &mut ScenarioConfig) -> Result<(), ScenarioError> {
    let Some(section) = doc.section("energy") else {
        return Ok(());
    };
    let mut battery_kind: Option<(&Entry, String)> = None;
    let mut battery_lo = 54.0;
    let mut battery_hi = 60.0;
    let mut battery_j: Option<f64> = None;
    for e in &section.entries {
        match e.key.as_str() {
            "tx_mw" => cfg.power.tx_mw = get_f64("energy", e)?,
            "rx_mw" => cfg.power.rx_mw = get_f64("energy", e)?,
            "idle_mw" => cfg.power.idle_mw = get_f64("energy", e)?,
            "sleep_mw" => cfg.power.sleep_mw = get_f64("energy", e)?,
            "battery" => battery_kind = Some((e, get_str("energy", e)?)),
            "battery_lo" => battery_lo = get_f64("energy", e)?,
            "battery_hi" => battery_hi = get_f64("energy", e)?,
            "battery_j" => battery_j = Some(get_f64("energy", e)?),
            _ => return Err(unknown_key("energy", e)),
        }
    }
    match battery_kind {
        Some((entry, kind)) => {
            cfg.battery = match kind.as_str() {
                "uniform" => BatterySpec::Uniform {
                    lo: battery_lo,
                    hi: battery_hi,
                },
                "fixed" => {
                    let Some(j) = battery_j else {
                        return Err(ScenarioError::at(
                            entry.span,
                            "fixed battery requires `battery_j`",
                        ));
                    };
                    BatterySpec::Fixed(j)
                }
                other => {
                    return Err(ScenarioError::at(
                        entry.span,
                        format!("unknown battery `{other}` (expected \"uniform\" or \"fixed\")"),
                    ))
                }
            };
        }
        None => {
            // Allow adjusting the uniform bounds without restating the kind.
            if section.get("battery_lo").is_some() || section.get("battery_hi").is_some() {
                cfg.battery = BatterySpec::Uniform {
                    lo: battery_lo,
                    hi: battery_hi,
                };
            }
        }
    }
    Ok(())
}

fn apply_peas(doc: &ScenarioDoc, cfg: &mut ScenarioConfig) -> Result<(), ScenarioError> {
    let Some(section) = doc.section("peas") else {
        return Ok(());
    };
    for e in &section.entries {
        match e.key.as_str() {
            "probing_range" => cfg.peas.probing_range = get_f64("peas", e)?,
            "initial_rate" => cfg.peas.initial_rate = get_f64("peas", e)?,
            "desired_rate" => cfg.peas.desired_rate = get_f64("peas", e)?,
            "measure_threshold" => cfg.peas.measure_threshold = get_u32("peas", e)?,
            "probe_count" => cfg.peas.probe_count = get_u32("peas", e)?,
            "probe_spread" => cfg.peas.probe_spread = get_duration("peas", e)?,
            "reply_window" => cfg.peas.reply_window = get_duration("peas", e)?,
            "reply_backoff_base" => cfg.peas.reply_backoff_base = get_duration("peas", e)?,
            "reply_backoff_max" => cfg.peas.reply_backoff_max = get_duration("peas", e)?,
            "turnoff" => cfg.peas.turnoff_enabled = get_bool("peas", e)?,
            "turnoff_tie_epsilon" => cfg.peas.turnoff_tie_epsilon = get_duration("peas", e)?,
            "measure_window_max" => cfg.peas.measure_window_max = get_duration("peas", e)?,
            "rate_lo" => cfg.peas.rate_bounds.0 = get_f64("peas", e)?,
            "rate_hi" => cfg.peas.rate_bounds.1 = get_f64("peas", e)?,
            "adjust_down" => cfg.peas.adjust_factor_bounds.0 = get_f64("peas", e)?,
            "adjust_up" => cfg.peas.adjust_factor_bounds.1 = get_f64("peas", e)?,
            "fixed_power_range" => {
                cfg.peas.fixed_power = Some(FixedPower {
                    tx_range: get_f64("peas", e)?,
                })
            }
            _ => return Err(unknown_key("peas", e)),
        }
    }
    Ok(())
}

fn apply_grab(doc: &ScenarioDoc, cfg: &mut ScenarioConfig) -> Result<(), ScenarioError> {
    let Some(section) = doc.section("grab") else {
        return Ok(());
    };
    let mut grab = cfg.grab.clone().unwrap_or_default();
    let mut enabled = true;
    for e in &section.entries {
        match e.key.as_str() {
            "enabled" => enabled = get_bool("grab", e)?,
            "adv_period" => grab.adv_period = get_duration("grab", e)?,
            "report_period" => grab.report_period = get_duration("grab", e)?,
            "adv_delay_max" => grab.adv_delay_max = get_duration("grab", e)?,
            "forward_delay_max" => grab.forward_delay_max = get_duration("grab", e)?,
            "credit_alpha" => grab.credit_alpha = get_f64("grab", e)?,
            "data_range" => grab.data_range = get_f64("grab", e)?,
            "adv_bytes" => grab.adv_bytes = get_usize("grab", e)?,
            "report_bytes" => grab.report_bytes = get_usize("grab", e)?,
            _ => return Err(unknown_key("grab", e)),
        }
    }
    cfg.grab = if enabled { Some(grab) } else { None };
    Ok(())
}

fn apply_failures(doc: &ScenarioDoc, cfg: &mut ScenarioConfig) -> Result<(), ScenarioError> {
    let Some(section) = doc.section("failures") else {
        return Ok(());
    };
    let mut enabled = true;
    let mut rate = cfg.failure.map_or(0.0, |f| f.rate_per_5000s);
    for e in &section.entries {
        match e.key.as_str() {
            "enabled" => enabled = get_bool("failures", e)?,
            "rate_per_5000s" => rate = get_f64("failures", e)?,
            _ => return Err(unknown_key("failures", e)),
        }
    }
    cfg.failure = if enabled && rate > 0.0 {
        Some(FailureConfig {
            rate_per_5000s: rate,
        })
    } else {
        None
    };
    Ok(())
}

fn apply_traffic(doc: &ScenarioDoc, cfg: &mut ScenarioConfig) -> Result<(), ScenarioError> {
    let Some(section) = doc.section("traffic") else {
        return Ok(());
    };
    for e in &section.entries {
        match e.key.as_str() {
            "events_per_100s" => {
                let rate = get_f64("traffic", e)?;
                cfg.events = (rate > 0.0).then_some(EventWorkload {
                    rate_per_100s: rate,
                });
            }
            _ => return Err(unknown_key("traffic", e)),
        }
    }
    Ok(())
}

fn apply_metrics(doc: &ScenarioDoc, cfg: &mut ScenarioConfig) -> Result<(), ScenarioError> {
    let Some(section) = doc.section("metrics") else {
        return Ok(());
    };
    for e in &section.entries {
        match e.key.as_str() {
            "sample_period" => cfg.metrics.sample_period = get_duration("metrics", e)?,
            "coverage_resolution" => cfg.metrics.coverage_resolution = get_f64("metrics", e)?,
            "max_k" => cfg.metrics.max_k = get_u32("metrics", e)?,
            _ => return Err(unknown_key("metrics", e)),
        }
    }
    Ok(())
}

fn compile_sweep(
    doc: &ScenarioDoc,
    base: &ScenarioConfig,
) -> Result<Option<SweepSpec>, ScenarioError> {
    let Some(section) = doc.section("sweeps") else {
        return Ok(None);
    };
    let mut axis: Option<(&Entry, String)> = None;
    let mut values: Option<&Entry> = None;
    let mut seeds: Vec<u64> = Vec::new();
    for e in &section.entries {
        match e.key.as_str() {
            "axis" => axis = Some((e, get_str("sweeps", e)?)),
            "values" => values = Some(e),
            "seeds" => {
                seeds = get_list("sweeps", e)?
                    .iter()
                    .map(|v| match v {
                        Value::Int(i) if *i >= 0 => Ok(*i as u64),
                        other => Err(type_error("sweeps", e, "a non-negative integer", other)),
                    })
                    .collect::<Result<_, _>>()?
            }
            _ => return Err(unknown_key("sweeps", e)),
        }
    }
    let (axis_entry, axis) =
        axis.ok_or_else(|| ScenarioError::at(section.span, "missing key `axis` in [sweeps]"))?;
    let values_entry = values
        .ok_or_else(|| ScenarioError::at(section.span, "missing key `values` in [sweeps]"))?;
    let values = get_list("sweeps", values_entry)?.to_vec();
    if values.is_empty() {
        return Err(ScenarioError::at(
            values_entry.span,
            "sweep `values` must not be empty",
        ));
    }
    let Some((axis_section, axis_key)) = axis.split_once('.') else {
        return Err(ScenarioError::at(
            axis_entry.span,
            "sweep axis must be `section.key`, e.g. `deployment.count`",
        ));
    };
    if !SECTIONS.contains(&axis_section)
        || matches!(axis_section, "sweeps" | "golden" | "model" | "trace")
    {
        return Err(ScenarioError::at(
            axis_entry.span,
            format!("unknown sweep axis section [{axis_section}]"),
        ));
    }
    if seeds.is_empty() {
        seeds.push(base.seed);
    }

    // Compile every point eagerly so bad sweep values are reported here,
    // not mid-run.
    let mut point_bases = Vec::with_capacity(values.len());
    for value in &values {
        let mut point_doc = doc.clone();
        point_doc.set_key(axis_section, axis_key, value.clone());
        point_bases.push(compile_base(&point_doc).map_err(|mut e| {
            e.message = format!(
                "sweep point {}.{} = {} is invalid: {}",
                axis_section, axis_key, value, e.message
            );
            e
        })?);
    }

    Ok(Some(SweepSpec {
        section: axis_section.to_string(),
        key: axis_key.to_string(),
        values,
        seeds,
        point_bases,
    }))
}

fn compile_golden(
    doc: &ScenarioDoc,
    sweep: &Option<SweepSpec>,
) -> Result<GoldenSpec, ScenarioError> {
    let Some(section) = doc.section("golden") else {
        return Ok(GoldenSpec::default());
    };
    let mut golden = GoldenSpec::default();
    for e in &section.entries {
        match e.key.as_str() {
            "seed" => golden.seed = Some(get_u64("golden", e)?),
            "horizon" => {
                golden.horizon = Some(SimTime::from_nanos(get_duration("golden", e)?.as_nanos()))
            }
            "point" => {
                let idx = get_usize("golden", e)?;
                match sweep {
                    None => {
                        return Err(ScenarioError::at(
                            e.span,
                            "`point` requires a [sweeps] section",
                        ))
                    }
                    Some(sw) if idx >= sw.values.len() => {
                        return Err(ScenarioError::at(
                            e.span,
                            format!(
                                "golden point {idx} out of range (sweep has {} values)",
                                sw.values.len()
                            ),
                        ))
                    }
                    Some(_) => golden.point = Some(idx),
                }
            }
            _ => return Err(unknown_key("golden", e)),
        }
    }
    Ok(golden)
}

fn compile_model(
    doc: &ScenarioDoc,
    base: &ScenarioConfig,
) -> Result<Option<ModelSpec>, ScenarioError> {
    let Some(section) = doc.section("model") else {
        return Ok(None);
    };
    let mut spec = ModelSpec {
        nodes: u32::try_from(base.node_count).unwrap_or(u32::MAX),
        topology: ModelTopology::Clique,
        loss: false,
        deaths: 0,
        max_states: 200_000,
    };
    for e in &section.entries {
        match e.key.as_str() {
            "nodes" => spec.nodes = get_u32("model", e)?,
            "topology" => {
                spec.topology = match get_str("model", e)?.as_str() {
                    "clique" => ModelTopology::Clique,
                    "chain" => ModelTopology::Chain,
                    other => {
                        return Err(ScenarioError::at(
                            e.span,
                            format!(
                            "unknown model topology `{other}` (expected \"clique\" or \"chain\")"
                        ),
                        ))
                    }
                }
            }
            "loss" => spec.loss = get_bool("model", e)?,
            "deaths" => spec.deaths = get_u32("model", e)?,
            "max_states" => spec.max_states = get_usize("model", e)?,
            _ => return Err(unknown_key("model", e)),
        }
    }
    if !(2..=6).contains(&spec.nodes) {
        return Err(ScenarioError::at(
            section.span,
            format!(
                "[model] worlds must have 2..=6 nodes (the explorer is exhaustive), got {}",
                spec.nodes
            ),
        ));
    }
    Ok(Some(spec))
}

fn compile_trace(
    doc: &ScenarioDoc,
    model: &Option<ModelSpec>,
) -> Result<Option<TraceSpec>, ScenarioError> {
    let Some(section) = doc.section("trace") else {
        return Ok(None);
    };
    if model.is_none() {
        return Err(ScenarioError::at(
            section.span,
            "a [trace] section requires a [model] section to replay against",
        ));
    }
    let mut events: Option<Vec<String>> = None;
    let mut expect_violation = None;
    for e in &section.entries {
        match e.key.as_str() {
            "events" => {
                events = Some(
                    get_list("trace", e)?
                        .iter()
                        .map(|v| match v {
                            Value::Str(s) => Ok(s.clone()),
                            other => Err(type_error("trace", e, "a list of strings", other)),
                        })
                        .collect::<Result<_, _>>()?,
                )
            }
            "expect_violation" => {
                let s = get_str("trace", e)?;
                expect_violation = (s != "none").then_some(s);
            }
            _ => return Err(unknown_key("trace", e)),
        }
    }
    let events =
        events.ok_or_else(|| ScenarioError::at(section.span, "missing key `events` in [trace]"))?;
    Ok(Some(TraceSpec {
        events,
        expect_violation,
    }))
}

// ---------------------------------------------------------------------------
// Typed accessors with stable diagnostics.

fn unknown_key(section: &str, e: &Entry) -> ScenarioError {
    ScenarioError::at(e.span, format!("unknown key `{}` in [{section}]", e.key))
}

fn type_error(section: &str, e: &Entry, want: &str, found: &Value) -> ScenarioError {
    ScenarioError::at(
        e.span,
        format!(
            "[{section}] {}: expected {want}, found {}",
            e.key,
            found.type_name()
        ),
    )
}

fn get_f64(section: &str, e: &Entry) -> Result<f64, ScenarioError> {
    match &e.value {
        Value::Float(x) => Ok(*x),
        Value::Int(i) => Ok(*i as f64),
        other => Err(type_error(section, e, "a number", other)),
    }
}

fn get_i64(section: &str, e: &Entry) -> Result<i64, ScenarioError> {
    match &e.value {
        Value::Int(i) => Ok(*i),
        other => Err(type_error(section, e, "an integer", other)),
    }
}

fn get_u64(section: &str, e: &Entry) -> Result<u64, ScenarioError> {
    let i = get_i64(section, e)?;
    u64::try_from(i).map_err(|_| type_error(section, e, "a non-negative integer", &e.value))
}

fn get_u32(section: &str, e: &Entry) -> Result<u32, ScenarioError> {
    let i = get_i64(section, e)?;
    u32::try_from(i).map_err(|_| type_error(section, e, "a non-negative integer", &e.value))
}

fn get_usize(section: &str, e: &Entry) -> Result<usize, ScenarioError> {
    let i = get_i64(section, e)?;
    usize::try_from(i).map_err(|_| type_error(section, e, "a non-negative integer", &e.value))
}

fn get_bool(section: &str, e: &Entry) -> Result<bool, ScenarioError> {
    match &e.value {
        Value::Bool(b) => Ok(*b),
        other => Err(type_error(section, e, "a boolean", other)),
    }
}

fn get_str(section: &str, e: &Entry) -> Result<String, ScenarioError> {
    match &e.value {
        Value::Str(s) => Ok(s.clone()),
        other => Err(type_error(section, e, "a string", other)),
    }
}

fn get_duration(section: &str, e: &Entry) -> Result<SimDuration, ScenarioError> {
    match &e.value {
        Value::Duration(d) => Ok(*d),
        other => Err(type_error(
            section,
            e,
            "a duration (e.g. `150ms`, `25s`)",
            other,
        )),
    }
}

fn get_list<'a>(section: &str, e: &'a Entry) -> Result<&'a [Value], ScenarioError> {
    match &e.value {
        Value::List(items) => Ok(items),
        other => Err(type_error(section, e, "a list", other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn compile_src(src: &str) -> Result<CompiledScenario, ScenarioError> {
        compile(&parse(src).expect("parses"), "test")
    }

    #[test]
    fn empty_deployment_only_doc_matches_paper_config() {
        let c = compile_src("[deployment]\ncount = 480\n").expect("compiles");
        assert_eq!(c.base, ScenarioConfig::paper(480));
        assert_eq!(c.name, "test");
        assert_eq!(c.runs().len(), 1);
    }

    #[test]
    fn overrides_apply_per_section() {
        let src = "\
[scenario]
name = \"demo\"
seed = 7
horizon = 1500s
loss_rate = 0.05

[deployment]
count = 100

[radio]
channel = \"shadowed\"
channel_seed = 7

[peas]
probing_range = 6.0
turnoff = false

[failures]
enabled = false

[grab]
enabled = false
";
        let c = compile_src(src).expect("compiles");
        assert_eq!(c.name, "demo");
        assert_eq!(c.base.seed, 7);
        assert_eq!(c.base.horizon, SimTime::from_secs(1500));
        assert_eq!(c.base.loss_rate, 0.05);
        assert_eq!(c.base.propagation, PropagationSpec::shadowed(7));
        assert_eq!(c.base.peas.probing_range, 6.0);
        assert!(!c.base.peas.turnoff_enabled);
        assert_eq!(c.base.failure, None);
        assert_eq!(c.base.grab, None);
    }

    #[test]
    fn terrain_model_compiles_from_its_section() {
        let src = "\
[deployment]
count = 60

[radio]
model = \"terrain\"
path_loss_exp = 2.5

[terrain]
cols = 11
rows = 11
cell_size = 5.0
seed = 9
amplitude = 12.0
hills = 5
diffraction = 0.8
";
        let c = compile_src(src).expect("compiles");
        let mut want = TerrainSpec::generated(11, 11, 5.0, 9);
        want.heights = HeightMap::Generated {
            seed: 9,
            amplitude: 12.0,
            hills: 5,
        };
        want.path_loss_exp = 2.5;
        want.diffraction = 0.8;
        assert_eq!(c.base.propagation, PropagationSpec::Terrain(want));
    }

    #[test]
    fn terrain_heights_can_be_inline() {
        let src = "\
[deployment]
count = 20

[field]
width = 10.0
height = 10.0

[radio]
model = \"terrain\"

[terrain]
cols = 2
rows = 2
cell_size = 10.0
heights = [0.0, 4.0, 4.0, 0.0]
";
        let c = compile_src(src).expect("compiles");
        let PropagationSpec::Terrain(spec) = &c.base.propagation else {
            panic!("expected a terrain spec, got {:?}", c.base.propagation);
        };
        assert_eq!(spec.heights, HeightMap::Inline(vec![0.0, 4.0, 4.0, 0.0]));
        assert_eq!(spec.path_loss_exp, DEFAULT_PATH_LOSS_EXP);
    }

    #[test]
    fn sweep_expands_values_times_seeds_in_order() {
        let src = "\
[deployment]
count = 160

[sweeps]
axis = \"deployment.count\"
values = [160, 320]
seeds = [101, 102, 103]

[golden]
point = 1
horizon = 1000s
";
        let c = compile_src(src).expect("compiles");
        let runs = c.runs();
        assert_eq!(runs.len(), 6);
        assert_eq!(runs[0].config.node_count, 160);
        assert_eq!(runs[0].config.seed, 101);
        assert_eq!(runs[2].config.seed, 103);
        assert_eq!(runs[3].config.node_count, 320);
        assert_eq!(runs[3].config.seed, 101);
        assert_eq!(runs[0].label, "deployment.count=160 seed=101");
        let golden = c.golden_config();
        assert_eq!(golden.node_count, 320);
        assert_eq!(golden.horizon, SimTime::from_secs(1000));
    }

    #[test]
    fn diagnostics_are_stable() {
        let err = compile_src("[deployment]\ncount = \"lots\"\n").expect_err("type error");
        assert_eq!(
            err.message,
            "[deployment] count: expected an integer, found a string"
        );
        assert_eq!((err.line, err.column), (2, 1));

        let err = compile_src("[peas]\nprobing_rage = 3.0\n").expect_err("unknown key");
        assert_eq!(
            err.message,
            "missing required section [deployment] (every scenario must declare `count`)"
        );

        let err = compile_src("[deployment]\ncount = 10\n\n[peas]\nprobing_rage = 3.0\n")
            .expect_err("unknown key");
        assert_eq!(err.message, "unknown key `probing_rage` in [peas]");
        assert_eq!((err.line, err.column), (5, 1));
    }

    #[test]
    fn model_section_compiles_with_defaults_from_deployment() {
        let c = compile_src("[deployment]\ncount = 3\n\n[model]\nloss = true\n").expect("compiles");
        let model = c.model.expect("model spec");
        assert_eq!(model.nodes, 3);
        assert_eq!(model.topology, ModelTopology::Clique);
        assert!(model.loss);
        assert_eq!(model.deaths, 0);
        assert_eq!(model.max_states, 200_000);
        assert!(c.trace.is_none());
    }

    #[test]
    fn model_section_rejects_large_worlds() {
        let err = compile_src("[deployment]\ncount = 40\n\n[model]\ndeaths = 1\n")
            .expect_err("too many nodes");
        assert!(err.message.contains("2..=6"), "{}", err.message);
        let c = compile_src("[deployment]\ncount = 40\n\n[model]\nnodes = 4\n").expect("compiles");
        assert_eq!(c.model.expect("model").nodes, 4);
    }

    #[test]
    fn trace_parses_events_and_requires_model() {
        let err = compile_src("[deployment]\ncount = 3\n\n[trace]\nevents = [\"fire 0 wake\"]\n")
            .expect_err("trace without model");
        assert!(
            err.message.contains("requires a [model]"),
            "{}",
            err.message
        );

        let src = "\
[deployment]
count = 3

[model]
topology = \"chain\"

[trace]
events = [\"fire 0 wake\", \"deliver 0 1\"]
expect_violation = \"none\"
";
        let c = compile_src(src).expect("compiles");
        assert_eq!(
            c.model.as_ref().expect("model").topology,
            ModelTopology::Chain
        );
        let trace = c.trace.expect("trace");
        assert_eq!(trace.events, vec!["fire 0 wake", "deliver 0 1"]);
        assert_eq!(trace.expect_violation, None);
    }

    #[test]
    fn clustered_requires_parameters() {
        let err = compile_src("[deployment]\ncount = 10\nkind = \"clustered\"\n")
            .expect_err("incomplete clustered");
        assert_eq!(
            err.message,
            "clustered deployment requires `centers` and `std_dev`"
        );
        let c = compile_src(
            "[deployment]\ncount = 10\nkind = \"clustered\"\ncenters = 4\nstd_dev = 3.5\n",
        )
        .expect("compiles");
        assert_eq!(
            c.base.deployment,
            Deployment::Clustered {
                centers: 4,
                std_dev: 3.5
            }
        );
    }
}
