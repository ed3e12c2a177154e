//! Paper-scale acceptance tests: full Section 5 scenarios asserting the
//! quantitative bands EXPERIMENTS.md documents. They are `#[ignore]`d by
//! default, because a debug build takes minutes over them; the CI `test`
//! job runs them in release mode, where the five take a few seconds:
//!
//! ```text
//! cargo test --release --test paper_scale -- --ignored
//! ```

use peas_repro::simulation::{run_all, RunReport, ScenarioConfig, World};

const THRESHOLD: f64 = 0.9;

/// `config` under seeds 101 and 102.
fn run_seeds(config: &ScenarioConfig) -> Vec<RunReport> {
    run_all(vec![
        config.clone().with_seed(101),
        config.clone().with_seed(102),
    ])
}

#[test]
#[ignore = "paper-scale; run with --ignored in release mode"]
fn figure_9_lifetime_grows_linearly_with_population() {
    let life = |n: usize| {
        let reports = run_seeds(&ScenarioConfig::paper(n));
        reports
            .iter()
            .map(|r| r.coverage_lifetime(4, THRESHOLD))
            .sum::<f64>()
            / reports.len() as f64
    };
    let l160 = life(160);
    let l480 = life(480);
    let l800 = life(800);
    assert!((3_500.0..6_500.0).contains(&l160), "160 nodes: {l160}");
    assert!(
        l480 > 2.4 * l160 && l480 < 4.2 * l160,
        "480 vs 160: {l480} vs {l160}"
    );
    assert!(
        l800 > 4.0 * l160 && l800 < 6.5 * l160,
        "800 vs 160: {l800} vs {l160}"
    );
}

#[test]
#[ignore = "paper-scale; run with --ignored in release mode"]
fn figure_12_lifetime_survives_38_percent_failures() {
    let life = |rate: f64| {
        let reports = run_seeds(&ScenarioConfig::paper(480).with_failure_rate(rate));
        reports
            .iter()
            .map(|r| r.coverage_lifetime(4, THRESHOLD))
            .sum::<f64>()
            / reports.len() as f64
    };
    let mild = life(5.33);
    let severe = life(48.0);
    let drop = 1.0 - severe / mild;
    assert!(
        drop < 0.35,
        "4-coverage lifetime dropped {:.0}% ({} -> {})",
        drop * 100.0,
        mild,
        severe
    );
}

#[test]
#[ignore = "paper-scale; run with --ignored in release mode"]
fn table_1_overhead_stays_below_one_percent() {
    for n in [160usize, 800] {
        let report = World::new(ScenarioConfig::paper(n).with_seed(101)).run();
        let ratio = report.overhead_ratio();
        assert!(ratio < 0.01, "N={n}: overhead ratio {ratio}");
        assert!(ratio > 0.0005, "N={n}: implausibly low overhead {ratio}");
    }
}

#[test]
#[ignore = "paper-scale; run with --ignored in release mode"]
fn figure_10_delivery_lifetime_tracks_coverage() {
    let report = World::new(ScenarioConfig::paper(480).with_seed(101)).run();
    let cov4 = report.coverage_lifetime(4, THRESHOLD);
    let delivery = report.delivery_lifetime(THRESHOLD);
    assert!(delivery > 0.6 * cov4, "delivery {delivery} vs cov4 {cov4}");
    assert!(delivery < 2.0 * cov4, "delivery {delivery} vs cov4 {cov4}");
}

#[test]
#[ignore = "paper-scale soak; run with --ignored in release mode"]
fn soak_800_nodes_to_extinction() {
    // Run the largest paper scenario until every sensor is dead and check
    // the end-state invariants hold over the whole multi-generation life.
    let report = World::new(ScenarioConfig::paper(800).with_seed(103)).run();
    let last = report.samples.last().expect("samples recorded");
    assert_eq!(last.alive, 0, "the run should end with everyone dead");
    assert!(
        (report.ledger.total_j() - report.consumed_j).abs() < 1e-6,
        "energy ledger drifted over {} samples",
        report.samples.len()
    );
    assert_eq!(
        report.failures_injected + report.energy_deaths,
        800,
        "every node's death must be accounted"
    );
    // Lifetime ~5 generations of 4500-5000 s batteries.
    let cov4 = report.coverage_lifetime(4, THRESHOLD);
    assert!(
        (18_000.0..32_000.0).contains(&cov4),
        "800-node 4-coverage lifetime {cov4}"
    );
}
