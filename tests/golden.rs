//! Golden-run regression test: a fingerprint of one small simulation's
//! full sample series. Any change to protocol logic, RNG consumption
//! order, radio behavior or energy accounting shifts this value — which is
//! the point: behavioral changes to the simulator must be *deliberate*.
//!
//! When an intentional change lands (a protocol fix, a new default), run
//! the test, review that the new behavior is wanted (EXPERIMENTS.md
//! numbers still reproduce), and update `GOLDEN_FINGERPRINT` to the value
//! printed in the failure message.

use peas_repro::des::time::SimTime;
use peas_repro::radio::PropagationSpec;
// The fingerprint definition lives in peas-scenario's conformance layer
// now — one canonical encoding shared by this test, the `.peas` golden
// snapshots and the `scenario` driver binary.
use peas_repro::scenario::sample_fingerprint;
use peas_repro::simulation::{Runner, ScenarioConfig};

const GOLDEN_FINGERPRINT: u64 = 0x4053_87E1_0CC7_2444;

/// Same scenario under log-normal shadowing with random loss: pins the
/// RNG-consumption order of the per-edge precomputed shadowing draws and
/// the per-receiver loss draws on the range-class fast path.
const GOLDEN_FINGERPRINT_SHADOWED: u64 = 0xCA76_1049_62AF_AC70;

#[test]
fn small_scenario_fingerprint_is_stable() {
    let mut config = ScenarioConfig::paper(100).with_seed(2024);
    config.horizon = SimTime::from_secs(1_500);
    let report = Runner::new(config).run_single();
    let fp = sample_fingerprint(&report);
    assert_eq!(
        fp, GOLDEN_FINGERPRINT,
        "simulation behavior changed: new fingerprint {fp:#018X}. If the \
         change is intentional (check EXPERIMENTS.md still reproduces), \
         update GOLDEN_FINGERPRINT."
    );
}

#[test]
fn shadowed_scenario_fingerprint_is_stable() {
    let mut config = ScenarioConfig::paper(100).with_seed(2024);
    config.horizon = SimTime::from_secs(1_500);
    config.propagation = PropagationSpec::shadowed(7);
    config.loss_rate = 0.05;
    let report = Runner::new(config).run_single();
    let fp = sample_fingerprint(&report);
    assert_eq!(
        fp, GOLDEN_FINGERPRINT_SHADOWED,
        "shadowed-channel behavior changed: new fingerprint {fp:#018X}. If \
         the change is intentional, update GOLDEN_FINGERPRINT_SHADOWED."
    );
}
