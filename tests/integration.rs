//! Cross-crate integration tests: full simulations driven through the
//! `peas-repro` facade, checking the paper's end-to-end properties at a
//! test-friendly scale.

use peas_repro::analysis::check_working_set;
use peas_repro::des::time::SimTime;
use peas_repro::geometry::Deployment;
use peas_repro::protocol::PeasConfig;
use peas_repro::simulation::{run_all, BatterySpec, ScenarioConfig, World};

/// A small, fast scenario used throughout this file.
fn small(n: usize, seed: u64) -> ScenarioConfig {
    let mut c = ScenarioConfig::small().with_seed(seed);
    c.node_count = n;
    c
}

#[test]
fn identical_seeds_produce_identical_runs() {
    let mut config = ScenarioConfig::paper(60).with_seed(77);
    config.horizon = SimTime::from_secs(800);
    let a = World::new(config.clone()).run();
    let b = World::new(config).run();
    assert_eq!(a.samples.len(), b.samples.len());
    for (sa, sb) in a.samples.iter().zip(&b.samples) {
        assert_eq!(sa, sb);
    }
    assert_eq!(a.node_stats, b.node_stats);
    assert_eq!(a.medium, b.medium);
    assert_eq!(a.delivered_reports, b.delivered_reports);
    assert!((a.consumed_j - b.consumed_j).abs() < 1e-12);
}

#[test]
fn lifetime_scales_with_deployment_size() {
    // The headline claim (Figures 9/10): more deployed nodes, longer life.
    // Small batteries keep the test quick.
    let lifetime = |n: usize| {
        let mut c = small(n, 5);
        c.battery = BatterySpec::Fixed(3.0); // ~250 s of working time
        c.horizon = SimTime::from_secs(6_000);
        World::new(c).run().coverage_lifetime(1, 0.9)
    };
    let l60 = lifetime(60);
    let l180 = lifetime(180);
    assert!(l60 > 0.0, "small deployment never functioned");
    assert!(
        l180 > 1.7 * l60,
        "tripling nodes should roughly triple lifetime: {l60} vs {l180}"
    );
}

#[test]
fn network_survives_heavy_failures() {
    // Fig 12's robustness shape: moderate lifetime loss at severe failure
    // rates, not collapse.
    let lifetime = |rate: f64| {
        let mut c = small(120, 9).with_failure_rate(rate);
        c.battery = BatterySpec::Fixed(4.0);
        c.horizon = SimTime::from_secs(6_000);
        World::new(c).run().coverage_lifetime(1, 0.9)
    };
    let clean = lifetime(0.0);
    let harsh = lifetime(60.0); // scaled to the small field/population
    assert!(clean > 0.0);
    assert!(
        harsh > 0.5 * clean,
        "lifetime under failures dropped too much: {clean} -> {harsh}"
    );
}

#[test]
fn sleeping_nodes_outnumber_working_in_dense_deployments() {
    let mut world = World::new(small(150, 3));
    world.run_until(SimTime::from_secs(400));
    let (working, _probing, sleeping, dead) = world.mode_census();
    assert_eq!(dead, 0);
    assert!(
        sleeping > working,
        "dense deployment: {sleeping} sleeping vs {working} working"
    );
    assert!(working > 20, "but a real working set exists: {working}");
}

#[test]
fn grab_delivers_through_the_working_set() {
    let mut config = ScenarioConfig::paper(240).with_seed(21);
    config.failure = None;
    config.horizon = SimTime::from_secs(700);
    let report = World::new(config).run();
    assert!(report.generated_reports >= 60);
    let ratio = report.final_delivery_ratio().unwrap();
    assert!(ratio > 0.85, "delivery ratio {ratio}");
}

#[test]
fn working_sets_satisfy_section_3_connectivity() {
    for seed in [1u64, 2, 3] {
        let mut config = ScenarioConfig::paper(320)
            .with_seed(seed)
            .with_failure_rate(0.0);
        config.grab = None;
        config.horizon = SimTime::from_secs(1_200);
        let mut world = World::new(config.clone());
        world.run_until(SimTime::from_secs(1_000));
        let working = world.working_positions();
        assert!(working.len() > 50, "seed {seed}: working set too small");
        let check = check_working_set(
            config.field,
            &working,
            config.peas.probing_range,
            config.peas.probing_range,
            &[10.0],
        );
        // Rt = 10 m > (1+sqrt5)*3 m: Theorem 3.1's premise holds; the
        // working graph must be connected at the radio range.
        let connected_at_rt = check.connected_at.first().map(|&(_, c)| c).unwrap_or(false);
        assert!(
            connected_at_rt,
            "seed {seed}: working set disconnected at 10 m"
        );
    }
}

#[test]
fn energy_ledger_balances_battery_drain() {
    let mut c = small(80, 13);
    c.horizon = SimTime::from_secs(1_000);
    let report = World::new(c).run();
    assert!(
        (report.ledger.total_j() - report.consumed_j).abs() < 1e-6,
        "ledger {} J vs batteries {} J",
        report.ledger.total_j(),
        report.consumed_j
    );
    // And PEAS overhead must be a tiny slice of it (Table 1's point).
    assert!(report.overhead_ratio() < 0.05);
}

#[test]
fn adaptive_sleeping_regulates_wakeups() {
    // With adaptation on, the perceived aggregate rate should come down
    // from the boot rate toward lambda_d's order of magnitude.
    let mut c = ScenarioConfig::paper(240)
        .with_seed(31)
        .with_failure_rate(0.0);
    c.grab = None;
    c.horizon = SimTime::from_secs(3_000);
    let report = World::new(c).run();
    let late = report
        .perceived_aggregate_rate(1_500.0, 3_000.0)
        .expect("rate measurable");
    assert!(
        late < 0.1,
        "aggregate per-worker rate should fall well below the boot rate: {late}"
    );
    assert!(late > 0.001, "but probing must continue: {late}");
}

#[test]
fn explicit_deployments_flow_through_the_whole_stack() {
    use peas_repro::geometry::Point;
    // A hand-placed 3 x 3 lattice: exactly one working node per ~Rp area.
    let positions: Vec<Point> = (0..3)
        .flat_map(|i| (0..3).map(move |j| Point::new(5.0 + 7.0 * i as f64, 5.0 + 7.0 * j as f64)))
        .collect();
    let mut c = ScenarioConfig::small().with_seed(17);
    c.node_count = positions.len();
    c.deployment = Deployment::Explicit(positions);
    c.horizon = SimTime::from_secs(500);
    let mut world = World::new(c);
    world.run_until(SimTime::from_secs(400));
    // All nine are pairwise > Rp = 3 m apart, so all must end up working.
    let (working, _, sleeping, dead) = world.mode_census();
    assert_eq!(
        working, 9,
        "working {working}, sleeping {sleeping}, dead {dead}"
    );
}

#[test]
fn fixed_power_mode_runs_end_to_end() {
    let mut c = small(100, 23);
    c.peas = PeasConfig::builder().fixed_power(10.0).build();
    c.horizon = SimTime::from_secs(600);
    let report = World::new(c).run();
    // The threshold filter must still produce a sensible working set.
    let working = report.working_series().value_at(500.0);
    assert!(working > 10.0, "fixed-power working set {working}");
    assert!(report.total_wakeups() > 0);
}

#[test]
fn lossy_channels_are_survivable() {
    let mut c = small(100, 27);
    c.loss_rate = 0.1; // the Section 4 operating point
    c.horizon = SimTime::from_secs(1_000);
    let report = World::new(c).run();
    let cov = report.coverage_series(1).value_at(800.0);
    assert!(cov > 0.9, "1-coverage under 10% loss: {cov}");
}

#[test]
fn multi_seed_runner_averages() {
    let mut c = small(50, 0);
    c.horizon = SimTime::from_secs(400);
    let reports = run_all((1..=3).map(|seed| c.clone().with_seed(seed)).collect());
    assert_eq!(reports.len(), 3);
    let seeds: Vec<u64> = reports.iter().map(|r| r.seed).collect();
    assert_eq!(seeds, vec![1, 2, 3]);
}

#[test]
fn event_workload_detects_and_delivers() {
    use peas_repro::simulation::EventWorkload;
    let mut c = ScenarioConfig::paper(320).with_seed(41);
    c.failure = None;
    c.events = Some(EventWorkload {
        rate_per_100s: 50.0,
    });
    c.horizon = SimTime::from_secs(1_500);
    let report = World::new(c).run();
    assert!(report.events_total > 300, "events {}", report.events_total);
    let detection = report.event_detection_ratio().unwrap();
    // 10 m sensing over a dense working set: essentially everything seen.
    assert!(detection > 0.95, "detection ratio {detection}");
    let delivery = report.event_delivery_ratio().unwrap();
    assert!(delivery > 0.75, "event delivery ratio {delivery}");
    // The corner-source stream is accounted separately.
    assert!(report.delivered_reports <= report.generated_reports);
}

#[test]
fn single_node_network_works_until_death() {
    use peas_repro::geometry::Point;
    // A degenerate one-node network: the node must wake, find silence,
    // work, and die of battery depletion — no panics, no hangs.
    let mut c = ScenarioConfig::small().with_seed(3);
    c.node_count = 1;
    c.deployment = Deployment::Explicit(vec![Point::new(12.0, 12.0)]);
    c.battery = BatterySpec::Fixed(1.0); // ~83 s awake
    c.horizon = SimTime::from_secs(2_000);
    let report = World::new(c).run();
    assert_eq!(report.energy_deaths, 1);
    assert!(report.total_wakeups() >= 1);
    let last = report.samples.last().unwrap();
    assert_eq!(last.alive, 0);
    assert!(report.end_secs < 2_000.0, "should stop early at extinction");
}

#[test]
fn combined_stress_loss_shadowing_failures() {
    use peas_repro::radio::PropagationSpec;
    // Everything hostile at once: 15% loss, shadowed channel, heavy
    // failures, fixed transmission power. The network must still elect and
    // sustain a working set with real coverage.
    let mut c = ScenarioConfig::paper(320)
        .with_seed(55)
        .with_failure_rate(40.0);
    c.loss_rate = 0.15;
    c.propagation = PropagationSpec::shadowed(55);
    c.peas = PeasConfig::builder().fixed_power(10.0).build();
    c.horizon = SimTime::from_secs(2_000);
    let report = World::new(c).run();
    let cov = report.coverage_series(1).value_at(1_500.0);
    assert!(cov > 0.85, "1-coverage under combined stress: {cov}");
    assert!(report.failures_injected > 0);
    // Ledger still balances under every channel effect.
    assert!((report.ledger.total_j() - report.consumed_j).abs() < 1e-6);
}

#[test]
fn grab_source_keeps_generating_after_sensor_extinction() {
    // When every sensor dies, the infrastructure source keeps minting
    // reports (they count against the success ratio) but nothing can relay
    // them — generated grows, delivered stalls.
    let mut c = ScenarioConfig::paper(40).with_seed(61);
    c.battery = BatterySpec::Fixed(2.0);
    c.failure = None;
    c.horizon = SimTime::from_secs(3_000);
    let report = World::new(c).run();
    let last = report.samples.last().unwrap();
    assert_eq!(last.alive, 0);
    assert!(report.generated_reports > 0);
    assert!(report.delivered_reports <= report.generated_reports);
}
