//! The figure/table formatters: each returns a paper-style text block.

use std::fmt::Write as _;

use peas::PeasConfig;
use peas_analysis::{linear_fit, mean_gaps, GapModel, Summary};
use peas_des::time::SimTime;
use peas_geom::CONNECTIVITY_FACTOR;
use peas_sim::{Runner, ScenarioConfig, World};

use crate::sweeps::{
    deployment_sweep, failure_sweep, SweepPoint, PAPER_FAILURE_RATES, PAPER_NODE_COUNTS,
    PAPER_SEEDS, QUICK_FAILURE_RATES, QUICK_NODE_COUNTS, QUICK_SEEDS,
};

/// The paper's lifetime threshold (Section 5.2).
pub const LIFETIME_THRESHOLD: f64 = 0.9;

/// Scale and seed options for the experiments.
#[derive(Clone, Debug)]
pub struct ExperimentOpts {
    /// Reduced sweeps for fast runs (`paper --quick`, tests).
    pub quick: bool,
    /// Seeds per sweep point.
    pub seeds: Vec<u64>,
}

impl ExperimentOpts {
    /// The paper-scale configuration: full sweeps, 5 seeds per point.
    pub fn full() -> ExperimentOpts {
        ExperimentOpts {
            quick: false,
            seeds: PAPER_SEEDS.to_vec(),
        }
    }

    /// Reduced sweeps with 2 seeds per point.
    pub fn quick() -> ExperimentOpts {
        ExperimentOpts {
            quick: true,
            seeds: QUICK_SEEDS.to_vec(),
        }
    }

    /// The deployment numbers this configuration sweeps.
    pub fn node_counts(&self) -> Vec<usize> {
        if self.quick {
            QUICK_NODE_COUNTS.to_vec()
        } else {
            PAPER_NODE_COUNTS.to_vec()
        }
    }

    /// The failure rates this configuration sweeps.
    pub fn failure_rates(&self) -> Vec<f64> {
        if self.quick {
            QUICK_FAILURE_RATES.to_vec()
        } else {
            PAPER_FAILURE_RATES.to_vec()
        }
    }

    /// Runs (or reuses) the deployment sweep.
    pub fn run_deployment_sweep(&self) -> Vec<SweepPoint> {
        deployment_sweep(&self.node_counts(), &self.seeds)
    }

    /// Runs (or reuses) the failure sweep.
    pub fn run_failure_sweep(&self) -> Vec<SweepPoint> {
        failure_sweep(480, &self.failure_rates(), &self.seeds)
    }
}

fn fit_note(points: &[(f64, f64)]) -> String {
    if points.len() < 2 {
        return String::new();
    }
    let fit = linear_fit(points);
    format!(
        "linear fit: slope {:.2} per node, R^2 = {:.3}",
        fit.slope, fit.r_squared
    )
}

/// Figure 9: 3-, 4- and 5-coverage lifetime vs deployment number.
pub fn fig9(points: &[SweepPoint]) -> String {
    let mut out = String::from(
        "Figure 9 — coverage lifetime vs deployment number (seconds, 90% threshold)\n\
         nodes   3-coverage   4-coverage   5-coverage\n",
    );
    let mut cov4_points = Vec::new();
    for p in points {
        let c3 = p.mean(|r| r.coverage_lifetime(3, LIFETIME_THRESHOLD));
        let c4 = p.mean(|r| r.coverage_lifetime(4, LIFETIME_THRESHOLD));
        let c5 = p.mean(|r| r.coverage_lifetime(5, LIFETIME_THRESHOLD));
        cov4_points.push((p.x, c4));
        let _ = writeln!(
            out,
            "{:>5}   {:>10.0}   {:>10.0}   {:>10.0}",
            p.x, c3, c4, c5
        );
    }
    let _ = writeln!(out, "{}", fit_note(&cov4_points));
    out
}

/// Figure 10: data delivery lifetime vs deployment number.
pub fn fig10(points: &[SweepPoint]) -> String {
    let mut out = String::from(
        "Figure 10 — data delivery lifetime vs deployment number (seconds, 90% threshold)\n\
         nodes   delivery lifetime\n",
    );
    let mut xy = Vec::new();
    for p in points {
        let life = p.mean(|r| r.delivery_lifetime(LIFETIME_THRESHOLD));
        xy.push((p.x, life));
        let _ = writeln!(out, "{:>5}   {:>17.0}", p.x, life);
    }
    let _ = writeln!(out, "{}", fit_note(&xy));
    out
}

/// Figure 11: average total wakeup count vs deployment number.
pub fn fig11(points: &[SweepPoint]) -> String {
    let mut out = String::from(
        "Figure 11 — average total wakeups vs deployment number\n\
         nodes   total wakeups\n",
    );
    let mut xy = Vec::new();
    for p in points {
        let wakeups = p.mean(|r| r.total_wakeups() as f64);
        xy.push((p.x, wakeups));
        let _ = writeln!(out, "{:>5}   {:>13.0}", p.x, wakeups);
    }
    let _ = writeln!(out, "{}", fit_note(&xy));
    out
}

/// Table 1: PEAS energy overhead per deployment number.
pub fn table1(points: &[SweepPoint]) -> String {
    let mut out = String::from(
        "Table 1 — energy overhead per deployment number\n\
         nodes   overhead (J)   overhead ratio\n",
    );
    for p in points {
        let j = p.mean(|r| r.overhead_j());
        let ratio = p.mean(|r| r.overhead_ratio());
        let _ = writeln!(out, "{:>5}   {:>12.2}   {:>13.3}%", p.x, j, ratio * 100.0);
    }
    out
}

/// Figure 12: coverage lifetime vs failure rate (N = 480).
pub fn fig12(points: &[SweepPoint]) -> String {
    let mut out = String::from(
        "Figure 12 — coverage lifetime vs failure rate (N = 480, seconds)\n\
         rate/5000s   3-coverage   4-coverage   5-coverage   failed%\n",
    );
    for p in points {
        let c3 = p.mean(|r| r.coverage_lifetime(3, LIFETIME_THRESHOLD));
        let c4 = p.mean(|r| r.coverage_lifetime(4, LIFETIME_THRESHOLD));
        let c5 = p.mean(|r| r.coverage_lifetime(5, LIFETIME_THRESHOLD));
        let failed = p.mean(|r| r.failures_injected as f64 / r.node_count as f64);
        let _ = writeln!(
            out,
            "{:>10.2}   {:>10.0}   {:>10.0}   {:>10.0}   {:>6.1}%",
            p.x,
            c3,
            c4,
            c5,
            failed * 100.0
        );
    }
    if points.len() >= 2 {
        let first = points[0].mean(|r| r.coverage_lifetime(4, LIFETIME_THRESHOLD));
        let last = points[points.len() - 1].mean(|r| r.coverage_lifetime(4, LIFETIME_THRESHOLD));
        let _ = writeln!(
            out,
            "4-coverage drop from lowest to highest failure rate: {:.1}%",
            (1.0 - last / first) * 100.0
        );
    }
    out
}

/// Figure 13: data delivery lifetime vs failure rate (N = 480).
pub fn fig13(points: &[SweepPoint]) -> String {
    let mut out = String::from(
        "Figure 13 — data delivery lifetime vs failure rate (N = 480, seconds)\n\
         rate/5000s   delivery lifetime\n",
    );
    for p in points {
        let life = p.mean(|r| r.delivery_lifetime(LIFETIME_THRESHOLD));
        let _ = writeln!(out, "{:>10.2}   {:>17.0}", p.x, life);
    }
    if points.len() >= 2 {
        let first = points[0].mean(|r| r.delivery_lifetime(LIFETIME_THRESHOLD));
        let last = points[points.len() - 1].mean(|r| r.delivery_lifetime(LIFETIME_THRESHOLD));
        let _ = writeln!(
            out,
            "delivery drop from lowest to highest failure rate: {:.1}%",
            (1.0 - last / first) * 100.0
        );
    }
    out
}

/// Figure 14: total wakeups vs failure rate, plus the constant-overhead
/// observation.
pub fn fig14(points: &[SweepPoint]) -> String {
    let mut out = String::from(
        "Figure 14 — average total wakeups vs failure rate (N = 480)\n\
         rate/5000s   total wakeups   overhead ratio\n",
    );
    for p in points {
        let wakeups = p.mean(|r| r.total_wakeups() as f64);
        let ratio = p.mean(|r| r.overhead_ratio());
        let _ = writeln!(
            out,
            "{:>10.2}   {:>13.0}   {:>13.3}%",
            p.x,
            wakeups,
            ratio * 100.0
        );
    }
    out
}

/// Section 2.2.1: accuracy of the k-PROBE estimator, empirical vs CLT.
pub fn kaccuracy() -> String {
    let mut out = String::from(
        "Section 2.2.1 — k-PROBE estimator accuracy (rate 0.02/s, 20000 trials)\n\
         k     mean |rel err|   P(err<=10%) emp   P(err<=10%) CLT\n",
    );
    for k in [4u32, 8, 16, 32, 64, 128] {
        let errs = peas_analysis::poisson::estimator_errors(k, 0.02, 20_000, 7);
        let mean_err = Summary::from_slice(&errs).mean;
        let emp = peas_analysis::poisson::interval_confidence(k, 0.02, 0.1, 20_000, 7);
        let clt = peas_analysis::poisson::clt_confidence(k, 0.1);
        let _ = writeln!(
            out,
            "{:>3}   {:>14.3}   {:>15.3}   {:>15.3}",
            k, mean_err, emp, clt
        );
    }
    out.push_str(
        "note: at 1% tolerance the CLT needs k ~ 66000 for 99% confidence; the paper's\n\
         k = 32 delivers ~18% typical relative error — ample for Equation 2's feedback loop.\n",
    );
    out
}

/// Section 2.2: does Adaptive Sleeping hold the perceived aggregate rate
/// near λd?
pub fn adaptive(opts: &ExperimentOpts) -> String {
    let n = if opts.quick { 240 } else { 480 };
    let mut out = format!(
        "Section 2.2 — Adaptive Sleeping: perceived aggregate probing rate (N = {n}, λd = 0.02/s)\n\
         window (s)        fixed-λ rate    adaptive rate\n",
    );
    let mut adaptive_cfg = ScenarioConfig::paper(n).with_failure_rate(0.0);
    adaptive_cfg.horizon = SimTime::from_secs(4_000);
    // The fixed-λ ablation: disable adjustment by pinning the bounds and
    // cap so λ cannot move from λ0 = λd-equivalent per-node value.
    let mut fixed_cfg = adaptive_cfg.clone();
    fixed_cfg.peas = PeasConfig::builder()
        .initial_rate(0.02)
        .rate_bounds(0.02 - 1e-9, 0.02 + 1e-9)
        .build();

    let adaptive_reports = Runner::new(adaptive_cfg.clone()).seeds(&opts.seeds).run();
    let fixed_reports = Runner::new(fixed_cfg.clone()).seeds(&opts.seeds).run();
    for (t0, t1) in [(500.0, 1500.0), (1500.0, 2500.0), (2500.0, 3500.0)] {
        let mean_rate = |reports: &[peas_sim::RunReport]| {
            let vals: Vec<f64> = reports
                .iter()
                .filter_map(|r| r.perceived_aggregate_rate(t0, t1))
                .collect();
            if vals.is_empty() {
                f64::NAN
            } else {
                vals.iter().sum::<f64>() / vals.len() as f64
            }
        };
        let _ = writeln!(
            out,
            "{:>6.0}-{:<6.0}   {:>12.4}   {:>12.4}",
            t0,
            t1,
            mean_rate(&fixed_reports),
            mean_rate(&adaptive_reports)
        );
    }
    out.push_str("target: adaptive rate within a small factor of λd = 0.0200\n");
    out
}

/// Figures 3–5: vacancy gaps, randomized vs synchronized wakeups.
pub fn gaps() -> String {
    let mut out = String::from(
        "Figures 3-5 — mean vacancy gap after a working node dies (seconds)\n\
         failure prob   randomized (PEAS)   synchronized\n",
    );
    for p in [0.0, 0.1, 0.2, 0.38] {
        let (rand, sync) = mean_gaps(GapModel::paper(p), 50_000, 11);
        let _ = writeln!(out, "{:>12.2}   {:>17.1}   {:>12.1}", p, rand, sync);
    }
    out.push_str(
        "randomized gaps are 1/λd regardless of failures; synchronized gaps grow as p·T/2.\n",
    );
    out
}

/// Section 3: empirical connectivity validation on PEAS working sets.
pub fn connectivity(opts: &ExperimentOpts) -> String {
    let n = if opts.quick { 240 } else { 480 };
    let mut out = format!(
        "Section 3 — connectivity of PEAS working sets (N = {n}, Rp = 3 m)\n\
         seed   workers   max-NN (m)   bound (m)   lemma   conn@(1+sqrt5)Rp   conn@10m\n",
    );
    for &seed in &opts.seeds {
        let mut config = ScenarioConfig::paper(n)
            .with_failure_rate(0.0)
            .with_seed(seed);
        config.grab = None;
        config.horizon = SimTime::from_secs(2_000);
        let mut world = World::new(config.clone());
        world.run_until(SimTime::from_secs(1_500));
        let working = world.working_positions();
        let check = peas_analysis::check_working_set(
            config.field,
            &working,
            config.peas.probing_range,
            config.peas.probing_range,
            &[10.0],
        );
        let _ = writeln!(
            out,
            "{:>4}   {:>7}   {:>10.2}   {:>9.2}   {:>5}   {:>16}   {:>8}",
            seed,
            check.node_count,
            check.max_nearest_neighbor.unwrap_or(f64::NAN),
            check.lemma_bound,
            check.lemma_holds,
            check.connected_at_theorem_range,
            check.connected_at.first().map(|&(_, c)| c).unwrap_or(false)
        );
    }
    let _ = writeln!(
        out,
        "bound = (1+sqrt(5))*Rp = {:.2} m; Rt = 10 m exceeds it, so Theorem 3.1 applies.",
        CONNECTIVITY_FACTOR * 3.0
    );
    out
}

/// Section 4: PROBE retransmissions vs uniform loss — why three PROBEs.
pub fn loss(opts: &ExperimentOpts) -> String {
    let n = if opts.quick { 240 } else { 480 };
    let mut out = format!(
        "Section 4 — multi-PROBE loss compensation (N = {n}, no failures)\n\
         loss   probes   mean working   spurious windows   overhead ratio\n",
    );
    for loss_rate in [0.0, 0.1, 0.2] {
        for probe_count in [1u32, 3] {
            let mut config = ScenarioConfig::paper(n).with_failure_rate(0.0);
            config.loss_rate = loss_rate;
            config.peas = PeasConfig::builder().probe_count(probe_count).build();
            config.horizon = SimTime::from_secs(3_000);
            let reports = Runner::new(config.clone()).seeds(&opts.seeds).run();
            let mean_working = reports
                .iter()
                .map(|r| r.working_series().value_at(2_500.0))
                .sum::<f64>()
                / reports.len() as f64;
            let spurious = reports
                .iter()
                .map(|r| {
                    r.node_stats.window_silent as f64
                        / (r.node_stats.window_silent + r.node_stats.window_with_reply).max(1)
                            as f64
                })
                .sum::<f64>()
                / reports.len() as f64;
            let overhead =
                reports.iter().map(|r| r.overhead_ratio()).sum::<f64>() / reports.len() as f64;
            let _ = writeln!(
                out,
                "{:>4.2}   {:>6}   {:>12.1}   {:>16.3}   {:>13.3}%",
                loss_rate,
                probe_count,
                mean_working,
                spurious,
                overhead * 100.0
            );
        }
    }
    out.push_str(
        "three PROBEs keep the silent-window fraction (unnecessary workers) low at 10-20% loss,\n\
         at an energy overhead still below 1% (the paper's Section 4 claim).\n",
    );
    out
}

/// Section 4 ablation: the working-node turn-off rule.
pub fn turnoff(opts: &ExperimentOpts) -> String {
    let n = if opts.quick { 240 } else { 480 };
    let mut out = format!(
        "Section 4 — turn-off rule ablation (N = {n}, 10% loss, no failures)\n\
         turn-off   mean working   redundant pairs   turnoffs\n",
    );
    for enabled in [false, true] {
        let mut config = ScenarioConfig::paper(n).with_failure_rate(0.0);
        config.loss_rate = 0.1;
        config.grab = None;
        config.peas = PeasConfig::builder().turnoff(enabled).build();
        config.horizon = SimTime::from_secs(3_000);
        let mut working_sum = 0.0;
        let mut pair_sum = 0.0;
        let mut turnoffs = 0u64;
        for &seed in &opts.seeds {
            let mut world = World::new(config.clone().with_seed(seed));
            world.run_until(SimTime::from_secs(2_500));
            let working = world.working_positions();
            let mut pairs = 0usize;
            for i in 0..working.len() {
                for j in (i + 1)..working.len() {
                    if working[i].distance(working[j]) < config.peas.probing_range {
                        pairs += 1;
                    }
                }
            }
            working_sum += working.len() as f64;
            pair_sum += pairs as f64;
            turnoffs += world.into_report().node_stats.turnoffs;
        }
        let k = opts.seeds.len() as f64;
        let _ = writeln!(
            out,
            "{:>8}   {:>12.1}   {:>15.1}   {:>8}",
            enabled,
            working_sum / k,
            pair_sum / k,
            turnoffs / opts.seeds.len() as u64
        );
    }
    out.push_str("the rule removes redundant (within-Rp) working pairs created by losses.\n");
    out
}

/// Sections 1/6: PEAS vs the baseline schedulers on coverage lifetime.
pub fn baselines(opts: &ExperimentOpts) -> String {
    use peas_baselines::{
        AfecaLike, AlwaysOn, BaselineScenario, GafGrid, SleepScheduler, SynchronizedRounds,
    };
    let ns: Vec<usize> = if opts.quick {
        vec![160, 480]
    } else {
        vec![160, 480, 800]
    };
    let mut out = String::from(
        "Sections 1/6 — 1-coverage lifetime (s): PEAS vs baselines (failure rate 10.66/5000 s)\n\
         nodes   always-on   sync-rounds   gaf-grid   afeca-like   PEAS\n",
    );
    for &n in &ns {
        let scenario = BaselineScenario::paper(n).with_failures(10.66);
        let mean_life = |s: &dyn SleepScheduler| {
            opts.seeds
                .iter()
                .map(|&seed| {
                    s.run(&scenario, seed)
                        .coverage_lifetime(1, LIFETIME_THRESHOLD)
                })
                .sum::<f64>()
                / opts.seeds.len() as f64
        };
        let peas_life = {
            let mut config = ScenarioConfig::paper(n);
            config.grab = None;
            Runner::new(config.clone())
                .seeds(&opts.seeds)
                .run()
                .iter()
                .map(|r| r.coverage_lifetime(1, LIFETIME_THRESHOLD))
                .sum::<f64>()
                / opts.seeds.len() as f64
        };
        let _ = writeln!(
            out,
            "{:>5}   {:>9.0}   {:>11.0}   {:>8.0}   {:>10.0}   {:>6.0}",
            n,
            mean_life(&AlwaysOn),
            mean_life(&SynchronizedRounds::paper()),
            mean_life(&GafGrid::paper()),
            mean_life(&AfecaLike::paper()),
            peas_life
        );
    }
    out.push_str("always-on is flat at one battery (~4500-5000 s); the schedulers scale with N.\n");
    out
}

/// Section 4, "Distribution of deployed nodes": even deployments work
/// longer than irregular ones.
pub fn deployment_dist(opts: &ExperimentOpts) -> String {
    use peas_geom::Deployment;
    let n = if opts.quick { 240 } else { 480 };
    let mut out = format!(
        "Section 4 — deployment distribution (N = {n}, failure rate 10.66/5000 s)\n\
         deployment       4-cov lifetime (s)   1-cov lifetime (s)\n",
    );
    let cases: [(&str, Deployment); 3] = [
        ("uniform", Deployment::Uniform),
        ("jittered-grid", Deployment::JitteredGrid),
        (
            "clustered",
            Deployment::Clustered {
                centers: 6,
                std_dev: 5.0,
            },
        ),
    ];
    for (name, deployment) in cases {
        let mut config = ScenarioConfig::paper(n);
        config.grab = None;
        config.deployment = deployment;
        let reports = Runner::new(config.clone()).seeds(&opts.seeds).run();
        let c4 = reports
            .iter()
            .map(|r| r.coverage_lifetime(4, LIFETIME_THRESHOLD))
            .sum::<f64>()
            / reports.len() as f64;
        let c1 = reports
            .iter()
            .map(|r| r.coverage_lifetime(1, LIFETIME_THRESHOLD))
            .sum::<f64>()
            / reports.len() as f64;
        let _ = writeln!(out, "{name:<15}   {c4:>18.0}   {c1:>18.0}");
    }
    out.push_str(
        "\"an uneven distribution may cause the system to function for less time because\n\
         regions with fewer nodes will die out much earlier\" — Section 4.\n",
    );
    out
}

/// Section 4, "Nodes with fixed transmission power": threshold filtering
/// under signal irregularity keeps the network functioning, with denser
/// working sets where reception is poorer.
pub fn irregular(opts: &ExperimentOpts) -> String {
    use peas_radio::PropagationSpec;
    let n = if opts.quick { 240 } else { 480 };
    let mut out = format!(
        "Section 4 — fixed transmission power and signal irregularity (N = {n}, no failures)\n\
         configuration              mean working   1-coverage @2500 s\n",
    );
    let cases: [(&str, bool, PropagationSpec); 3] = [
        ("variable power, disc", false, PropagationSpec::Disc),
        ("fixed power, disc", true, PropagationSpec::Disc),
        ("fixed power, shadowed", true, PropagationSpec::shadowed(5)),
    ];
    for (name, fixed, propagation) in cases {
        let mut config = ScenarioConfig::paper(n).with_failure_rate(0.0);
        config.grab = None;
        config.propagation = propagation;
        if fixed {
            config.peas = PeasConfig::builder().fixed_power(10.0).build();
        }
        config.horizon = SimTime::from_secs(3_000);
        let reports = Runner::new(config.clone()).seeds(&opts.seeds).run();
        let working = reports
            .iter()
            .map(|r| r.working_series().value_at(2_500.0))
            .sum::<f64>()
            / reports.len() as f64;
        let cov = reports
            .iter()
            .map(|r| r.coverage_series(1).value_at(2_500.0))
            .sum::<f64>()
            / reports.len() as f64;
        let _ = writeln!(out, "{name:<25}   {working:>12.1}   {:>17.3}", cov);
    }
    out.push_str(
        "the received-signal-strength threshold rule keeps the working density and the\n\
         coverage intact under irregular attenuation: links that fade look longer than Rp\n\
         and are filtered, while strong links admit slightly farther workers (Section 4).\n",
    );
    out
}

/// Extension: event detection and reporting end to end — the motivating
/// application ("interested events are monitored and reported properly",
/// Section 5.2) with reports originating anywhere in the field.
pub fn events(opts: &ExperimentOpts) -> String {
    use peas_sim::EventWorkload;
    let ns: Vec<usize> = if opts.quick {
        vec![160, 320]
    } else {
        vec![160, 320, 480, 640]
    };
    let mut out = String::from(
        "Extension — event detection and delivery (events ~ Poisson 20/100 s, to t = 4000 s)\n\
         nodes   events   detected   delivered to sink\n",
    );
    for &n in &ns {
        let mut config = ScenarioConfig::paper(n).with_failure_rate(10.66);
        config.events = Some(EventWorkload {
            rate_per_100s: 20.0,
        });
        config.horizon = SimTime::from_secs(4_000);
        let reports = Runner::new(config.clone()).seeds(&opts.seeds).run();
        let total =
            reports.iter().map(|r| r.events_total).sum::<u64>() as f64 / reports.len() as f64;
        let detected = reports
            .iter()
            .filter_map(|r| r.event_detection_ratio())
            .sum::<f64>()
            / reports.len() as f64;
        let delivered = reports
            .iter()
            .filter_map(|r| r.event_delivery_ratio())
            .sum::<f64>()
            / reports.len() as f64;
        let _ = writeln!(
            out,
            "{n:>5}   {total:>6.0}   {:>7.1}%   {:>16.1}%",
            detected * 100.0,
            delivered * 100.0
        );
    }
    out.push_str(
        "the PEAS working set both sees the events (K-coverage in action) and routes\n\
         their reports to the sink over the GRAB cost field.\n",
    );
    out
}

/// Sensitivity: the probing range `Rp` (Section 2.1 — "The probing range
/// determines the redundancy of working nodes").
pub fn rp_sweep(opts: &ExperimentOpts) -> String {
    let n = if opts.quick { 240 } else { 480 };
    let mut out = format!(
        "Sensitivity — probing range Rp (N = {n}, no failures, t = 2500 s)\n\
         Rp (m)   mean working   1-coverage   4-coverage   connected@10m\n",
    );
    for rp in [2.0, 3.0, 4.0, 5.0, 6.0] {
        let mut config = ScenarioConfig::paper(n).with_failure_rate(0.0);
        config.grab = None;
        config.peas = PeasConfig::builder().probing_range(rp).build();
        config.horizon = SimTime::from_secs(3_000);
        let mut working_sum = 0.0;
        let mut cov1 = 0.0;
        let mut cov4 = 0.0;
        let mut connected = 0usize;
        for &seed in &opts.seeds {
            let mut world = World::new(config.clone().with_seed(seed));
            world.run_until(SimTime::from_secs(2_500));
            let positions = world.working_positions();
            working_sum += positions.len() as f64;
            if peas_geom::connectivity::analyze(config.field, &positions, 10.0).is_connected() {
                connected += 1;
            }
            let report = world.into_report();
            cov1 += report.coverage_series(1).value_at(2_500.0);
            cov4 += report.coverage_series(4).value_at(2_500.0);
        }
        let k = opts.seeds.len() as f64;
        let _ = writeln!(
            out,
            "{rp:>6.1}   {:>12.1}   {:>10.3}   {:>10.3}   {connected:>7}/{}",
            working_sum / k,
            cov1 / k,
            cov4 / k,
            opts.seeds.len()
        );
    }
    out.push_str(
        "larger Rp -> sparser working sets: cheaper but less redundant; beyond\n\
         Rt/(1+sqrt5) = 3.09 m the Section 3 connectivity guarantee no longer applies.\n",
    );
    out
}

/// Sensitivity: the desired aggregate probing rate λd (Section 2.2 — set
/// from the application's tolerance of sensing interruptions). Trades
/// energy overhead against failure-replacement latency.
pub fn lambdad_sweep(opts: &ExperimentOpts) -> String {
    let n = if opts.quick { 240 } else { 480 };
    let mut out = format!(
        "Sensitivity — desired aggregate rate lambda_d (N = {n}, failures 26.66/5000 s)\n\
         lambda_d   wakeups/1000 s   overhead ratio   4-cov @3500 s\n",
    );
    for lambdad in [0.005, 0.02, 0.08] {
        let mut config = ScenarioConfig::paper(n).with_failure_rate(26.66);
        config.grab = None;
        config.peas = PeasConfig::builder().desired_rate(lambdad).build();
        config.horizon = SimTime::from_secs(4_000);
        let reports = Runner::new(config.clone()).seeds(&opts.seeds).run();
        let wakeups = reports
            .iter()
            .map(|r| r.wakeup_series().value_at(4_000.0) - r.wakeup_series().value_at(3_000.0))
            .sum::<f64>()
            / reports.len() as f64;
        let overhead =
            reports.iter().map(|r| r.overhead_ratio()).sum::<f64>() / reports.len() as f64;
        let cov4 = reports
            .iter()
            .map(|r| r.coverage_series(4).value_at(3_500.0))
            .sum::<f64>()
            / reports.len() as f64;
        let _ = writeln!(
            out,
            "{lambdad:>8.3}   {wakeups:>14.0}   {:>13.3}%   {cov4:>12.3}",
            overhead * 100.0
        );
    }
    out.push_str(
        "higher lambda_d replaces failed workers faster (1/lambda_d mean gap, Figs 3-5)\n\
         at proportionally higher probing overhead — the Section 2.2 dial.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opts_sweep_sizes() {
        assert_eq!(ExperimentOpts::full().node_counts().len(), 5);
        assert_eq!(ExperimentOpts::quick().node_counts().len(), 3);
        assert_eq!(ExperimentOpts::full().failure_rates().len(), 9);
        assert_eq!(ExperimentOpts::quick().seeds.len(), 2);
    }

    #[test]
    fn kaccuracy_block_is_well_formed() {
        let block = kaccuracy();
        assert!(block.contains("k = 32"));
        assert!(block.lines().count() >= 8);
    }

    #[test]
    fn gaps_block_shows_the_contrast() {
        let block = gaps();
        assert!(block.contains("randomized"));
        // The 0.38 row must show synchronized gaps far above 50 s.
        let last_row = block
            .lines()
            .find(|l| l.trim_start().starts_with("0.38"))
            .expect("0.38 row");
        let cols: Vec<f64> = last_row
            .split_whitespace()
            .filter_map(|t| t.parse().ok())
            .collect();
        assert_eq!(cols.len(), 3);
        assert!(cols[2] > cols[1] * 5.0, "{last_row}");
    }

    #[test]
    fn figure_formatters_render_tables() {
        // Tiny synthetic sweep to exercise the formatting paths.
        let mut cfg = ScenarioConfig::paper(40);
        cfg.horizon = SimTime::from_secs(200);
        let points = vec![SweepPoint {
            x: 40.0,
            reports: Runner::new(cfg.clone()).seeds(&[1]).run(),
        }];
        for block in [
            fig9(&points),
            fig10(&points),
            fig11(&points),
            table1(&points),
            fig12(&points),
            fig13(&points),
            fig14(&points),
        ] {
            assert!(block.lines().count() >= 3, "short block: {block}");
        }
    }
}
