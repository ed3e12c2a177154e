//! Robustness under a harsh environment: the paper's Section 5.3 story in
//! miniature. PEAS is built for deployments where "node failures may
//! happen frequently" — this example sweeps the failure rate up to the
//! paper's maximum (48 per 5000 s, ≈38% of nodes) and contrasts PEAS's
//! graceful degradation against the synchronized-sleeping strawman of
//! Section 2.1.1.
//!
//! ```text
//! cargo run --release --example harsh_environment
//! ```

use peas_repro::baselines::{BaselineScenario, SleepScheduler, SynchronizedRounds};
use peas_repro::scenario::load_compiled;
use peas_repro::simulation::World;
use std::path::Path;

fn main() {
    // The failure-rate sweep is declared in the sibling scenario file;
    // the synchronized strawman below stays on the Rust side (it runs on
    // the coarse baseline model, not the packet-level simulator).
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/harsh_environment.peas");
    let scenario = load_compiled(&path).expect("harsh_environment.peas compiles");
    let n = scenario.base.node_count;
    println!("harsh-environment sweep: N = {n}, failure rates up to the paper's 48/5000 s\n");
    println!(
        "{:>11}  {:>14}  {:>14}  {:>13}",
        "rate/5000s", "PEAS cov4 (s)", "sync cov1 (s)", "failed nodes"
    );

    let mut peas_base = None;
    let mut sync_base = None;
    for run in scenario.runs() {
        // PEAS under the full packet-level simulator.
        let rate = run
            .config
            .failure
            .expect("every sweep point injects failures")
            .rate_per_5000s;
        let report = World::new(run.config).run();
        let peas_life = report.coverage_lifetime(4, 0.9);

        // The synchronized strawman on the coarse energy/coverage model.
        let mut scenario = BaselineScenario::paper(n).with_failures(rate);
        scenario.coverage_resolution = 2.0;
        scenario.step_secs = 25.0;
        let sync_life = SynchronizedRounds::paper()
            .run(&scenario, 3)
            .coverage_lifetime(1, 0.9);

        peas_base.get_or_insert(peas_life);
        sync_base.get_or_insert(sync_life);
        println!(
            "{:>11.2}  {:>14.0}  {:>14.0}  {:>12}",
            rate, peas_life, sync_life, report.failures_injected
        );
    }

    println!("\nnote: PEAS's randomized wakeups replace failed workers within ~1/lambda_d;");
    println!("synchronized sleepers only re-elect at round boundaries, so their coverage");
    println!("collapses faster as the failure rate climbs (the Figure 4/5 effect).");
}
