//! Property-based tests over whole simulation runs: for arbitrary small
//! scenarios, the run must satisfy the system invariants.

use proptest::prelude::*;

use peas::NodeStats;
use peas_des::time::SimTime;
use peas_radio::{EnergyCause, EnergyLedger, MediumStats};
use peas_sim::report_json::parse_json;
use peas_sim::{
    decode_report, encode_report, BatterySpec, FailureConfig, RunReport, Sample, ScenarioConfig,
    World,
};

fn arb_scenario() -> impl Strategy<Value = ScenarioConfig> {
    (
        10usize..60,                      // node_count
        any::<u64>(),                     // seed
        0.0f64..0.2,                      // loss rate
        prop::option::of(10.0f64..200.0), // failure rate (scaled high for short runs)
        prop::bool::ANY,                  // grab on/off
        2.0f64..10.0,                     // battery joules
    )
        .prop_map(|(n, seed, loss, failure, grab, battery)| {
            let mut c = ScenarioConfig::small().with_seed(seed);
            c.node_count = n;
            c.loss_rate = loss;
            c.failure = failure.map(|rate_per_5000s| FailureConfig { rate_per_5000s });
            if grab {
                c.grab = Some(peas_grab::GrabConfig::paper());
            }
            c.battery = BatterySpec::Fixed(battery);
            c.horizon = SimTime::from_secs(600);
            c.metrics.sample_period = peas_des::time::SimDuration::from_secs(50);
            c
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Core run invariants hold for arbitrary scenarios.
    #[test]
    fn run_invariants(config in arb_scenario()) {
        let report = World::new(config.clone()).run();
        // Samples advance in time.
        for w in report.samples.windows(2) {
            prop_assert!(w[0].t_secs < w[1].t_secs);
            // Alive count never increases; cumulative wakeups never shrink.
            prop_assert!(w[1].alive <= w[0].alive);
            prop_assert!(w[1].total_wakeups >= w[0].total_wakeups);
            // Delivery ratio stays a probability.
            if let Some(r) = w[1].delivery_ratio {
                prop_assert!((0.0..=1.0).contains(&r));
            }
        }
        for s in &report.samples {
            // Coverage values are probabilities, monotone in k.
            for c in s.coverage.windows(2) {
                prop_assert!((0.0..=1.0).contains(&c[0]));
                prop_assert!(c[0] >= c[1] - 1e-12);
            }
            // Census consistency: working + sleeping <= alive <= deployed.
            prop_assert!(s.working + s.sleeping <= s.alive);
            prop_assert!(s.alive <= config.node_count);
        }
        // Energy ledger balances the batteries exactly.
        prop_assert!((report.ledger.total_j() - report.consumed_j).abs() < 1e-6);
        // Death bookkeeping: every death is a failure or a depletion, and
        // the final accounting sweep may kill nodes after the last sample.
        if let Some(last) = report.samples.last() {
            let deaths = (report.failures_injected + report.energy_deaths) as usize;
            prop_assert!(deaths >= config.node_count - last.alive);
            prop_assert!(deaths <= config.node_count);
        }
        // Deliveries never exceed generation.
        prop_assert!(report.delivered_reports <= report.generated_reports);
    }

    /// Bit-for-bit determinism for arbitrary scenarios.
    #[test]
    fn runs_are_reproducible(config in arb_scenario()) {
        let a = World::new(config.clone()).run();
        let b = World::new(config).run();
        prop_assert_eq!(a.samples, b.samples);
        prop_assert_eq!(a.node_stats, b.node_stats);
        prop_assert_eq!(a.medium, b.medium);
        prop_assert_eq!(a.failures_injected, b.failures_injected);
        prop_assert_eq!(a.energy_deaths, b.energy_deaths);
        prop_assert_eq!(a.delivered_reports, b.delivered_reports);
    }

    /// The overhead ratio is always a valid fraction, and protocol
    /// overhead is consistent with its parts.
    #[test]
    fn overhead_is_a_fraction(config in arb_scenario()) {
        let report = World::new(config).run();
        let ratio = report.overhead_ratio();
        prop_assert!((0.0..=1.0).contains(&ratio), "ratio {ratio}");
        prop_assert!(report.overhead_j() <= report.ledger.total_j() + 1e-9);
    }
}

/// The finite float nearest in bits to `bits`: NaN and infinity patterns
/// (all-ones exponent) lose their lowest exponent bit.
fn finite(bits: u64) -> f64 {
    let v = f64::from_bits(bits);
    if v.is_finite() {
        v
    } else {
        f64::from_bits(bits ^ (1 << 52))
    }
}

/// Float bit patterns: any at all, or short decimals like a real run's.
fn arb_float_bits() -> impl Strategy<Value = u64> {
    prop_oneof![
        any::<u64>(),
        (0u64..100_000).prop_map(|k| (k as f64 / 64.0).to_bits()),
    ]
}

/// Counters: any `u64`, or small like a real run's.
fn arb_count() -> impl Strategy<Value = u64> {
    prop_oneof![any::<u64>(), 0u64..1000]
}

fn arb_sample() -> impl Strategy<Value = Sample> {
    (
        arb_float_bits(),
        prop::collection::vec(arb_float_bits(), 0..6),
        (arb_count(), arb_count(), arb_count()),
        prop::option::of(arb_float_bits()),
        arb_count(),
    )
        .prop_map(
            |(t, coverage, (working, sleeping, alive), ratio, total_wakeups)| Sample {
                t_secs: finite(t),
                coverage: coverage.into_iter().map(finite).collect(),
                working: working as usize,
                sleeping: sleeping as usize,
                alive: alive as usize,
                delivery_ratio: ratio.map(finite),
                total_wakeups,
            },
        )
}

/// Reports from arbitrary finite floats and arbitrary counters. Ledger
/// entries are magnitudes, the only values a ledger can hold.
fn arb_report() -> impl Strategy<Value = RunReport> {
    (
        prop::collection::vec(arb_sample(), 0..5),
        prop::collection::vec(arb_count(), 24..25),
        prop::collection::vec(arb_float_bits(), 9..10),
    )
        .prop_map(|(samples, n, f)| {
            let mut ledger = EnergyLedger::new();
            for (&cause, &bits) in EnergyCause::ALL.iter().zip(&f) {
                ledger.add(cause, finite(bits).abs());
            }
            RunReport {
                node_count: n[0] as usize,
                seed: n[1],
                samples,
                node_stats: NodeStats {
                    wakeups: n[2],
                    probes_sent: n[3],
                    replies_sent: n[4],
                    probes_heard: n[5],
                    replies_heard: n[6],
                    measurements: n[7],
                    window_with_reply: n[8],
                    window_silent: n[9],
                    turnoffs: n[10],
                    replies_overheard: n[11],
                },
                ledger,
                consumed_j: finite(f[7]),
                medium: MediumStats {
                    frames_sent: n[12],
                    deliveries_ok: n[13],
                    collisions: n[14],
                    random_losses: n[15],
                },
                failures_injected: n[16],
                energy_deaths: n[17],
                generated_reports: n[18],
                delivered_reports: n[19],
                events_total: n[20],
                events_detected: n[21],
                events_delivered: n[22],
                end_secs: finite(f[8]),
                events_processed: n[23],
            }
        })
}

/// Bytes a damaged report may gain besides random ones: JSON's structural
/// bytes and the bytes numbers and keywords are made of.
const JSON_BYTES: &[u8] = b"{}[]:,\"\\ 0123456789+-.eEnul";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Any report of finite floats and any counters survives the codec:
    /// decoding its encoding and encoding again gives the same bytes.
    #[test]
    fn codec_round_trips_arbitrary_reports(report in arb_report()) {
        let encoded = encode_report(&report);
        let decoded = decode_report(&encoded)
            .map_err(|e| TestCaseError::fail(format!("{e} for {encoded}")))?;
        prop_assert_eq!(&encode_report(&decoded), &encoded);
        prop_assert_eq!(decoded, report);
    }

    /// A truncated, flipped or shortened encoding never panics the reader,
    /// and the reader accepts it only if the tree parser accepts it too.
    /// What it accepts re-encodes (every float it returns is finite).
    #[test]
    fn codec_survives_damaged_text(
        report in arb_report(),
        damage in (0u8..4, any::<u64>(), any::<u8>()),
    ) {
        let (kind, at, byte) = damage;
        let mut bytes = encode_report(&report).into_bytes();
        let at = (at % bytes.len() as u64) as usize;
        match kind {
            0 => bytes.truncate(at),
            1 => bytes[at] ^= byte.max(1),
            2 => bytes[at] = JSON_BYTES[usize::from(byte) % JSON_BYTES.len()],
            _ => {
                bytes.remove(at);
            }
        }
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(decoded) = decode_report(&text) {
            prop_assert!(parse_json(&text).is_ok(), "reader accepted what the parser rejects: {}", text);
            let _ = encode_report(&decoded);
        }
    }
}
