//! Bridges `.peas` scenarios with a `[model]` section to the
//! `peas-model` explorer: spec → config conversion and golden-style
//! snapshots of exploration and trace-replay outcomes, so the scenario
//! driver's `run`/`fingerprint`/`check`/`bless` pipeline covers model
//! runs with the same machinery it uses for simulations.
//!
//! Living here (not in `peas-model`) keeps the model crate free of the
//! scenario-language dependency — it stays a pure library over
//! `PeasNode`.

use peas_model::{explore, replay, FoundViolation, ModelCfg, ModelEvent, Topology, Violation};
use peas_scenario::{CompiledScenario, ModelSpec, ModelTopology, Snapshot, TraceSpec};

/// Converts a compiled `[model]` section plus the scenario's `[peas]`
/// settings into an explorable configuration.
pub fn model_cfg(spec: &ModelSpec, scenario: &CompiledScenario) -> ModelCfg {
    ModelCfg {
        nodes: spec.nodes,
        topology: match spec.topology {
            ModelTopology::Clique => Topology::Clique,
            ModelTopology::Chain => Topology::Chain,
        },
        loss: spec.loss,
        deaths: spec.deaths,
        peas: scenario.base.peas.clone(),
        max_states: spec.max_states,
        strict_duplicate_working: false,
    }
}

/// Parses a `[trace]` section's event lines.
///
/// # Errors
///
/// Returns the first malformed event line.
pub fn parse_trace(spec: &TraceSpec) -> Result<Vec<ModelEvent>, String> {
    spec.events.iter().map(|s| ModelEvent::parse(s)).collect()
}

/// The golden snapshot of a model scenario: a trace replay when the
/// scenario has a `[trace]` section, otherwise a full exploration.
///
/// # Errors
///
/// Returns a description of a malformed `[trace]` event line.
pub fn model_snapshot(scenario: &CompiledScenario) -> Result<Snapshot, String> {
    model_run(scenario).map(|(snapshot, _)| snapshot)
}

/// Runs a model scenario: its [`model_snapshot`], plus the violation an
/// exploration found, with the event trace that reaches it.
///
/// # Errors
///
/// Returns a description of a malformed `[trace]` event line.
pub fn model_run(
    scenario: &CompiledScenario,
) -> Result<(Snapshot, Option<FoundViolation>), String> {
    let spec = scenario
        .model
        .as_ref()
        .ok_or_else(|| "scenario has no [model] section".to_string())?;
    let cfg = model_cfg(spec, scenario);
    let mut fields: Vec<(String, String)> = Vec::new();
    let mut push = |key: &str, value: String| fields.push((key.to_string(), value));
    let mut found = None;

    if let Some(trace_spec) = &scenario.trace {
        let trace = parse_trace(trace_spec)?;
        let outcome = replay(&cfg, &trace);
        push("mode", "replay".to_string());
        push("events", trace.len().to_string());
        push("applied", outcome.applied.to_string());
        push(
            "stuck_at",
            outcome
                .stuck_at
                .map_or_else(|| "none".to_string(), |i| i.to_string()),
        );
        push("violation", rule_of(outcome.violation.as_ref()));
        push(
            "final_state_hash",
            format!("{:#018X}", outcome.final_state_hash),
        );
    } else {
        let outcome = explore(&cfg);
        push("mode", "explore".to_string());
        push("states", outcome.states.to_string());
        push("transitions", outcome.transitions.to_string());
        push("fixpoint", outcome.fixpoint.to_string());
        push("max_depth", outcome.max_depth.to_string());
        push(
            "duplicate_working_states",
            outcome.duplicate_working_states.to_string(),
        );
        push(
            "coverage_hole_states",
            outcome.coverage_hole_states.to_string(),
        );
        push("canon_hash", format!("{:#018X}", outcome.canon_hash));
        push(
            "violation",
            rule_of(outcome.violation.as_ref().map(|f| &f.violation)),
        );
        found = outcome.violation;
    }
    Ok((Snapshot { fields }, found))
}

/// The expected-violation rule of a scenario (`"none"` when the
/// scenario expects a clean result).
pub fn expected_rule(scenario: &CompiledScenario) -> String {
    scenario
        .trace
        .as_ref()
        .and_then(|t| t.expect_violation.clone())
        .unwrap_or_else(|| "none".to_string())
}

/// Renders a violation as its stable rule name, `"none"` when absent.
pub fn rule_of(violation: Option<&Violation>) -> String {
    violation.map_or_else(|| "none".to_string(), |v| v.rule().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compiled(src: &str) -> CompiledScenario {
        let doc = peas_scenario::load_str(src).expect("parses");
        peas_scenario::compile(&doc, "test").expect("compiles")
    }

    const MICRO_PEAS: &str = "\n[peas]\nprobe_count = 1\nmeasure_threshold = 2\nturnoff_tie_epsilon = 3s\nrate_lo = 0.02\nrate_hi = 0.4\n";

    #[test]
    fn explore_snapshot_has_the_stable_field_set() {
        let scenario = compiled(&format!(
            "[deployment]\ncount = 2\n{MICRO_PEAS}\n[model]\nnodes = 2\n"
        ));
        let snap = model_snapshot(&scenario).expect("snapshot");
        assert_eq!(snap.get("mode"), Some("explore"));
        assert_eq!(snap.get("violation"), Some("none"));
        assert_eq!(snap.get("fixpoint"), Some("true"));
        assert!(snap.get("canon_hash").is_some());
    }

    #[test]
    fn replay_snapshot_reports_the_trace_outcome() {
        let scenario = compiled(&format!(
            "[deployment]\ncount = 2\n{MICRO_PEAS}\n[model]\nnodes = 2\n\n\
             [trace]\nexpect_violation = \"none\"\nevents = [\"fire 0 wake\", \"fire 0 probe-send\"]\n"
        ));
        let snap = model_snapshot(&scenario).expect("snapshot");
        assert_eq!(snap.get("mode"), Some("replay"));
        assert_eq!(snap.get("applied"), Some("2"));
        assert_eq!(snap.get("stuck_at"), Some("none"));
        assert_eq!(expected_rule(&scenario), "none");
    }

    #[test]
    fn malformed_trace_events_are_reported() {
        let scenario = compiled(&format!(
            "[deployment]\ncount = 2\n{MICRO_PEAS}\n[model]\nnodes = 2\n\n\
             [trace]\nevents = [\"teleport 0 1\"]\n"
        ));
        let err = model_snapshot(&scenario).expect_err("malformed event");
        assert!(err.contains("teleport"), "{err}");
    }
}
