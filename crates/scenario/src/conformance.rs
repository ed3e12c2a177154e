//! The golden conformance layer: canonical run fingerprints and metric
//! snapshots, plus the machinery to render, parse and diff them.
//!
//! A *fingerprint* is FNV-1a over the formatted sample stream of a run —
//! the exact encoding the repo's original golden test used, now the
//! single canonical definition. A *snapshot* is the fingerprint plus a
//! small set of headline metrics in a stable `key = value` text form
//! committed under `scenarios/golden/`; [`first_divergence`] names the
//! first field that differs so a failing conformance test can say
//! precisely what drifted.

use peas_des::{fnv1a_extend, FNV1A_OFFSET};
use peas_sim::RunReport;

/// The canonical event-stream fingerprint of a run: FNV-1a over each
/// sample formatted as
/// `t|coverage_micro|working|sleeping|alive|wakeups|delivery_micro`.
/// Any change to protocol logic, RNG-consumption order, radio behavior
/// or energy accounting shifts this value.
pub fn sample_fingerprint(report: &RunReport) -> u64 {
    report.samples.iter().fold(FNV1A_OFFSET, |hash, s| {
        let part = format!(
            "{:.3}|{:?}|{}|{}|{}|{}|{:?}",
            s.t_secs,
            s.coverage
                .iter()
                .map(|c| (c * 1e6).round() as u64)
                .collect::<Vec<_>>(),
            s.working,
            s.sleeping,
            s.alive,
            s.total_wakeups,
            s.delivery_ratio.map(|r| (r * 1e6).round() as u64),
        );
        fnv1a_extend(hash, part.as_bytes())
    })
}

/// The delivery threshold used for snapshot lifetimes (the paper's 90%).
const LIFETIME_THRESHOLD: f64 = 0.9;

/// A golden snapshot: ordered `(key, value)` pairs, all values already
/// rendered as stable strings.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Fields in canonical order.
    pub fields: Vec<(String, String)>,
}

impl Snapshot {
    /// Looks up a field by key.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Builds the canonical snapshot of a run. Field order is part of the
    /// format; every value is formatted with fixed precision so the
    /// rendered text is deterministic.
    pub fn of_report(report: &RunReport) -> Snapshot {
        let mut fields: Vec<(String, String)> = Vec::new();
        let mut push = |key: &str, value: String| fields.push((key.to_string(), value));

        push(
            "fingerprint",
            format!("{:#018X}", sample_fingerprint(report)),
        );
        push("samples", report.samples.len().to_string());
        push("end_secs", format!("{:.3}", report.end_secs));
        push("total_wakeups", report.total_wakeups().to_string());
        push("failures_injected", report.failures_injected.to_string());
        push("energy_deaths", report.energy_deaths.to_string());
        push("generated_reports", report.generated_reports.to_string());
        push("delivered_reports", report.delivered_reports.to_string());
        push("events_total", report.events_total.to_string());
        push("events_detected", report.events_detected.to_string());
        push("events_delivered", report.events_delivered.to_string());
        push("consumed_j", format!("{:.6}", report.consumed_j));
        push("overhead_j", format!("{:.6}", report.overhead_j()));
        let max_k = report.samples.first().map_or(0, |s| s.coverage.len());
        let max_k = u32::try_from(max_k).unwrap_or(u32::MAX);
        for k in 1..=max_k {
            push(
                &format!("cov{k}_lifetime"),
                format!("{:.3}", report.coverage_lifetime(k, LIFETIME_THRESHOLD)),
            );
        }
        push(
            "delivery_lifetime",
            format!("{:.3}", report.delivery_lifetime(LIFETIME_THRESHOLD)),
        );

        Snapshot { fields }
    }

    /// Renders the snapshot in its on-disk text form.
    pub fn render(&self, scenario_name: &str) -> String {
        let mut out = String::new();
        out.push_str("# Golden conformance snapshot. Regenerate with:\n");
        out.push_str(&format!(
            "#   cargo run --release -p peas-bench --bin scenario -- bless {scenario_name}\n"
        ));
        for (key, value) in &self.fields {
            out.push_str(&format!("{key} = {value}\n"));
        }
        out
    }

    /// Parses a snapshot from its on-disk text form. `#` lines and blank
    /// lines are ignored; everything else must be `key = value`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn parse(src: &str) -> Result<Snapshot, String> {
        let mut fields = Vec::new();
        for (i, line) in src.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!(
                    "snapshot line {}: expected `key = value`, got `{line}`",
                    i + 1
                ));
            };
            fields.push((key.trim().to_string(), value.trim().to_string()));
        }
        Ok(Snapshot { fields })
    }
}

/// Where two snapshots first disagree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// The field that differs (or exists on only one side).
    pub field: String,
    /// The expected (committed) value, if the field exists there.
    pub expected: Option<String>,
    /// The actual (freshly computed) value, if the field exists there.
    pub actual: Option<String>,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let expected = self.expected.as_deref().unwrap_or("<missing>");
        let actual = self.actual.as_deref().unwrap_or("<missing>");
        write!(
            f,
            "field `{}`: expected {expected}, got {actual}",
            self.field
        )
    }
}

/// Returns the first field (in `expected` order, then `actual`-only
/// fields) whose value differs between the two snapshots, or `None` when
/// they agree completely.
pub fn first_divergence(expected: &Snapshot, actual: &Snapshot) -> Option<Divergence> {
    for (key, want) in &expected.fields {
        match actual.get(key) {
            Some(got) if got == want => {}
            got => {
                return Some(Divergence {
                    field: key.clone(),
                    expected: Some(want.clone()),
                    actual: got.map(str::to_string),
                })
            }
        }
    }
    for (key, got) in &actual.fields {
        if expected.get(key).is_none() {
            return Some(Divergence {
                field: key.clone(),
                expected: None,
                actual: Some(got.clone()),
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(fields: &[(&str, &str)]) -> Snapshot {
        Snapshot {
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    #[test]
    fn render_parse_round_trips() {
        let s = snap(&[
            ("fingerprint", "0x405387E10CC72444"),
            ("samples", "61"),
            ("cov1_lifetime", "1500.000"),
        ]);
        let text = s.render("fig9");
        assert!(text.contains("bless fig9"));
        assert_eq!(Snapshot::parse(&text).expect("parses"), s);
    }

    #[test]
    fn divergence_names_the_first_differing_field() {
        let a = snap(&[("fingerprint", "0xAA"), ("samples", "61")]);
        let b = snap(&[("fingerprint", "0xAA"), ("samples", "62")]);
        let d = first_divergence(&a, &b).expect("diverges");
        assert_eq!(d.field, "samples");
        assert_eq!(d.to_string(), "field `samples`: expected 61, got 62");
        assert_eq!(first_divergence(&a, &a), None);

        let c = snap(&[("fingerprint", "0xAA")]);
        let d = first_divergence(&a, &c).expect("missing field");
        assert_eq!(d.field, "samples");
        assert_eq!(d.actual, None);
    }

    #[test]
    fn malformed_snapshot_lines_are_reported() {
        let err = Snapshot::parse("fingerprint 0xAA\n").expect_err("malformed");
        assert!(err.contains("snapshot line 1"));
    }
}
