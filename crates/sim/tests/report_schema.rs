//! Contract test for the versioned `RunReport` wire form (`schema = 1`).
//!
//! The result cache and `scenario run --json` both persist reports in
//! this form, so its key names and their order are a compatibility
//! contract: a rename or reorder silently invalidates every cache on
//! disk. This test pins the exact key sequence — if it
//! fails, either revert the serializer change or bump
//! [`peas_sim::REPORT_SCHEMA`] and teach the decoder both versions.

use peas::NodeStats;
use peas_des::time::SimTime;
use peas_radio::{EnergyCause, EnergyLedger, MediumStats};
use peas_sim::{
    decode_report, encode_report, fnv1a, RunReport, Sample, ScenarioConfig, World, REPORT_SCHEMA,
};

fn sample_report() -> peas_sim::RunReport {
    let mut config = ScenarioConfig::small();
    config.node_count = 25;
    config.horizon = SimTime::from_secs(300);
    World::new(config.with_seed(7)).run()
}

/// Every `"key":` occurrence in encoding order. Object nesting does not
/// matter for the contract — a cache written by one build must decode
/// in the next, which requires the flat key stream to be stable.
fn key_stream(encoded: &str) -> Vec<String> {
    let mut keys = Vec::new();
    let bytes = encoded.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'"' {
            let start = i + 1;
            let mut j = start;
            while j < bytes.len() && bytes[j] != b'"' {
                if bytes[j] == b'\\' {
                    j += 1;
                }
                j += 1;
            }
            if bytes.get(j + 1) == Some(&b':') {
                keys.push(encoded[start..j].to_string());
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    keys
}

#[test]
fn schema_version_is_pinned() {
    assert_eq!(REPORT_SCHEMA, 1);
}

#[test]
fn serialized_report_key_names_and_order_are_pinned() {
    let report = sample_report();
    let encoded = encode_report(&report);
    let keys = key_stream(&encoded);

    // Top-level prefix, in order.
    let head = [
        "schema",
        "node_count",
        "seed",
        "samples",
        "t_secs",
        "coverage",
        "working",
        "sleeping",
        "alive",
        "delivery_ratio",
        "total_wakeups",
    ];
    assert_eq!(
        &keys[..head.len()],
        &head,
        "schema-1 prefix drifted in {encoded:.120}"
    );

    // Per-sample keys repeat identically for every sample.
    let per_sample = &head[4..];
    let samples = report.samples.len();
    assert!(samples >= 2, "sample config should record several samples");
    for s in 0..samples {
        let at = 4 + s * per_sample.len();
        assert_eq!(
            &keys[at..at + per_sample.len()],
            per_sample,
            "sample #{s} keys drifted"
        );
    }

    // Everything after the samples array, in order: the aggregate
    // node_stats object, the energy ledger, the medium census and the
    // scalar tail.
    let tail = [
        "node_stats",
        "wakeups",
        "probes_sent",
        "replies_sent",
        "probes_heard",
        "replies_heard",
        "measurements",
        "window_with_reply",
        "window_silent",
        "turnoffs",
        "replies_overheard",
        "ledger_j",
        "protocol_tx",
        "protocol_rx",
        "protocol_idle",
        "app_tx",
        "app_rx",
        "working_idle",
        "sleep",
        "consumed_j",
        "medium",
        "frames_sent",
        "deliveries_ok",
        "collisions",
        "random_losses",
        "failures_injected",
        "energy_deaths",
        "generated_reports",
        "delivered_reports",
        "events_total",
        "events_detected",
        "events_delivered",
        "end_secs",
        "events_processed",
    ];
    let tail_at = 4 + samples * per_sample.len();
    assert_eq!(&keys[tail_at..], &tail, "schema-1 suffix drifted");
}

#[test]
fn decode_inverts_encode_exactly() {
    let report = sample_report();
    let encoded = encode_report(&report);
    let decoded = decode_report(&encoded).expect("well-formed schema-1 line");
    assert_eq!(decoded, report, "decode(encode(r)) must equal r");
    assert_eq!(
        encode_report(&decoded),
        encoded,
        "re-encoding must be byte-identical"
    );
}

#[test]
fn unknown_schema_versions_are_rejected() {
    let report = sample_report();
    let encoded = encode_report(&report).replacen("\"schema\":1", "\"schema\":2", 1);
    let err = decode_report(&encoded).expect_err("schema 2 must be rejected");
    assert!(
        err.contains("unsupported report schema"),
        "unexpected error: {err}"
    );
}

/// FNV-1a of `sample_report()`'s encoding. The key-order test above
/// cannot see a value rendered differently; this pin can.
const SAMPLE_REPORT_FNV: u64 = 0x352541304041877B;

#[test]
fn sample_report_encoding_is_byte_pinned() {
    let encoded = encode_report(&sample_report());
    assert_eq!(
        fnv1a(encoded.as_bytes()),
        SAMPLE_REPORT_FNV,
        "schema-1 bytes of the sample report drifted: {encoded:.200}"
    );
}

/// A report whose floats are easy to render wrongly: negative zero, the
/// smallest subnormal, values at the switch between plain and exponent
/// notation, a sum with no short decimal form and the largest finite
/// value; plus a `None` delivery ratio and an empty coverage list.
fn awkward_report() -> RunReport {
    let mut ledger = EnergyLedger::new();
    ledger.add(EnergyCause::ProtocolTx, 5e-324);
    ledger.add(EnergyCause::ProtocolRx, 0.1 + 0.2);
    ledger.add(EnergyCause::AppTx, 1e15);
    ledger.add(EnergyCause::Sleep, f64::MAX);
    RunReport {
        node_count: 3,
        seed: u64::MAX,
        samples: vec![
            Sample {
                t_secs: -0.0,
                coverage: Vec::new(),
                working: 0,
                sleeping: 1,
                alive: 2,
                delivery_ratio: None,
                total_wakeups: 0,
            },
            Sample {
                t_secs: 1e16,
                coverage: vec![1e-7, 0.1 + 0.2, 5e-324, -0.0],
                working: 7,
                sleeping: 8,
                alive: 15,
                delivery_ratio: Some(1e-7),
                total_wakeups: u64::MAX,
            },
        ],
        node_stats: NodeStats {
            wakeups: 1,
            probes_sent: 2,
            replies_sent: 3,
            probes_heard: 4,
            replies_heard: 5,
            measurements: 6,
            window_with_reply: 7,
            window_silent: 8,
            turnoffs: 9,
            replies_overheard: 10,
        },
        ledger,
        consumed_j: 0.1 + 0.2,
        medium: MediumStats {
            frames_sent: 11,
            deliveries_ok: 12,
            collisions: 13,
            random_losses: 14,
        },
        failures_injected: 15,
        energy_deaths: 16,
        generated_reports: 17,
        delivered_reports: 18,
        events_total: 19,
        events_detected: 20,
        events_delivered: 21,
        end_secs: f64::MAX,
        events_processed: 0,
    }
}

#[test]
fn awkward_floats_encode_to_pinned_text() {
    let encoded = encode_report(&awkward_report());
    let want = concat!(
        r#"{"schema":1,"node_count":3,"seed":18446744073709551615,"samples":["#,
        r#"{"t_secs":-0.0,"coverage":[],"working":0,"sleeping":1,"alive":2,"#,
        r#""delivery_ratio":null,"total_wakeups":0},"#,
        r#"{"t_secs":1e16,"coverage":[1e-7,0.30000000000000004,5e-324,-0.0],"#,
        r#""working":7,"sleeping":8,"alive":15,"delivery_ratio":1e-7,"#,
        r#""total_wakeups":18446744073709551615}],"#,
        r#""node_stats":{"wakeups":1,"probes_sent":2,"replies_sent":3,"probes_heard":4,"#,
        r#""replies_heard":5,"measurements":6,"window_with_reply":7,"window_silent":8,"#,
        r#""turnoffs":9,"replies_overheard":10},"#,
        r#""ledger_j":{"protocol_tx":5e-324,"protocol_rx":0.30000000000000004,"#,
        r#""protocol_idle":0.0,"app_tx":1000000000000000.0,"app_rx":0.0,"working_idle":0.0,"#,
        r#""sleep":1.7976931348623157e308},"consumed_j":0.30000000000000004,"#,
        r#""medium":{"frames_sent":11,"deliveries_ok":12,"collisions":13,"random_losses":14},"#,
        r#""failures_injected":15,"energy_deaths":16,"generated_reports":17,"#,
        r#""delivered_reports":18,"events_total":19,"events_detected":20,"#,
        r#""events_delivered":21,"end_secs":1.7976931348623157e308,"events_processed":0}"#,
    );
    assert_eq!(encoded, want);
    let decoded = decode_report(&encoded).expect("pinned text decodes");
    assert_eq!(encode_report(&decoded), want, "re-encoding drifted");
    assert_eq!(
        decoded.samples[0].t_secs.to_bits(),
        (-0.0f64).to_bits(),
        "negative zero keeps its sign"
    );
}

#[test]
fn reader_takes_any_key_order_first_occurrence_and_unknown_keys() {
    let report = awkward_report();
    let encoded = encode_report(&report);
    // `schema` moved last, a repeated `seed` (the first one wins) and an
    // unknown nested key, with whitespace between tokens.
    let body = encoded
        .strip_prefix("{\"schema\":1,")
        .and_then(|rest| rest.strip_suffix('}'))
        .expect("schema leads the encoding");
    let reordered = format!(
        "{{ {body} , \"seed\" : 5 ,\"extra\":{{\"a\":[1,-2.5e3,{{\"b\":null}},\"\\u0041\"]}},\"schema\":1}}\n"
    );
    assert_eq!(decode_report(&reordered), Ok(report));
    // Unknown values are still syntax-checked, and nothing may follow.
    let bad_unknown = reordered.replace("\"b\":null", "\"b\":nul");
    assert!(decode_report(&bad_unknown).is_err());
    assert!(decode_report(&format!("{encoded} x")).is_err());
    assert!(decode_report(&format!("{encoded}}}")).is_err());
    // A float the encoder could not write back is refused.
    let overflow = encoded.replace("1.7976931348623157e308", "1.7976931348623157e309");
    let err = decode_report(&overflow).expect_err("not finite");
    assert!(err.contains("not a finite float"), "{err}");
}
