//! The figure/table formatters: each returns a paper-style text block.
//!
//! Figures 9–11 and Table 1 read off one deployment-number sweep, and
//! Figures 12–14 off one failure-rate sweep. Each sweep is defined once,
//! by its scenario file (`scenarios/fig9.peas`, `scenarios/fig12.peas`),
//! the same file `scenario`, `sweep` and `serve` run; [`ExperimentOpts::sweep`]
//! loads it, and running it once and formatting several artifacts from it
//! mirrors how the paper's own numbers were produced (Section 5.2: "Given
//! each node population, the results are averaged over 5 simulation
//! runs").

use std::fmt::Write as _;

use peas::PeasConfig;
use peas_analysis::{linear_fit, mean_gaps, GapModel, Summary};
use peas_des::time::SimTime;
use peas_geom::CONNECTIVITY_FACTOR;
use peas_scenario::{load_compiled, Value};
use peas_sim::{run_all, RunReport, ScenarioConfig, World};

use crate::scenario_path;

/// The paper's lifetime threshold (Section 5.2).
pub const LIFETIME_THRESHOLD: f64 = 0.9;

/// The seeds of the experiments that have no scenario file yet: the
/// paper's five runs per point (Section 5.2).
const PAPER_SEEDS: [u64; 5] = [101, 102, 103, 104, 105];

/// Scale and seed options for the experiments.
#[derive(Clone, Debug)]
pub struct ExperimentOpts {
    /// Reduced runs for speed (`paper --quick`, tests): a sweep keeps
    /// its first, middle and last values, and every experiment its
    /// first two seeds.
    pub quick: bool,
    /// `--seeds`: replaces the seeds of every experiment, the sweeps'
    /// included.
    pub seeds: Option<Vec<u64>>,
}

impl ExperimentOpts {
    /// The paper-scale configuration: full sweeps, 5 seeds per point.
    pub fn full() -> ExperimentOpts {
        ExperimentOpts {
            quick: false,
            seeds: None,
        }
    }

    /// Reduced sweeps with 2 seeds per point.
    pub fn quick() -> ExperimentOpts {
        ExperimentOpts {
            quick: true,
            seeds: None,
        }
    }

    /// The seeds of an experiment that declares `declared`: `--seeds`
    /// if given, else the first two under `--quick`, else all of them.
    fn seeds_of(&self, declared: &[u64]) -> Vec<u64> {
        match &self.seeds {
            Some(seeds) => seeds.clone(),
            None if self.quick => declared.iter().take(2).copied().collect(),
            None => declared.to_vec(),
        }
    }

    /// The seeds of the experiments that have no scenario file.
    pub fn seeds(&self) -> Vec<u64> {
        self.seeds_of(&PAPER_SEEDS)
    }

    /// Runs `config` once per seed of [`ExperimentOpts::seeds`].
    fn run_seeds(&self, config: &ScenarioConfig) -> Vec<RunReport> {
        run_all(
            self.seeds()
                .into_iter()
                .map(|seed| config.clone().with_seed(seed))
                .collect(),
        )
    }

    /// Loads the sweep a scenario (a corpus stem such as `fig9`, or a
    /// `.peas` path) declares, cut to this configuration's grid.
    ///
    /// # Errors
    ///
    /// A file that does not load, declares no `[sweeps]`, or sweeps a
    /// value that is not a number; the message names the file.
    pub fn sweep(&self, scenario: &str) -> Result<Sweep, String> {
        let path = scenario_path(scenario);
        let mut compiled = load_compiled(&path).map_err(|e| e.to_string())?;
        let Some(spec) = compiled.sweep.as_mut() else {
            return Err(format!("{}: declares no [sweeps]", path.display()));
        };
        if self.quick {
            // The compiler rejects an empty `values` list.
            let n = spec.values.len();
            let mut keep = vec![0, n / 2, n - 1];
            keep.dedup();
            spec.values = keep.iter().map(|&i| spec.values[i].clone()).collect();
            spec.point_bases = keep.iter().map(|&i| spec.point_bases[i].clone()).collect();
        }
        spec.seeds = self.seeds_of(&spec.seeds);
        let xs = spec
            .values
            .iter()
            .map(|value| match value {
                Value::Int(i) => Ok(*i as f64),
                Value::Float(x) => Ok(*x),
                other => Err(format!(
                    "{}: sweep value {other} is not a number",
                    path.display()
                )),
            })
            .collect::<Result<Vec<f64>, String>>()?;
        let seeds = spec.seeds.clone();
        let configs = compiled.runs().into_iter().map(|run| run.config).collect();
        Ok(Sweep { xs, seeds, configs })
    }
}

/// A paper sweep loaded from its scenario file: one point per sweep
/// value, each run once per seed.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// Each point's x: its sweep value (deployment number, failure
    /// rate, …), in declaration order.
    pub xs: Vec<f64>,
    /// The seeds every point runs under, in order.
    pub seeds: Vec<u64>,
    /// One config per (point, seed), values-major: each point's runs
    /// are consecutive, in seed order.
    pub configs: Vec<ScenarioConfig>,
}

impl Sweep {
    /// Runs every config through [`run_all`] and groups the reports into
    /// one point per x.
    pub fn run(self) -> Vec<SweepPoint> {
        let mut reports = run_all(self.configs).into_iter();
        self.xs
            .into_iter()
            .map(|x| SweepPoint {
                x,
                reports: reports.by_ref().take(self.seeds.len()).collect(),
            })
            .collect()
    }
}

/// One sweep point: the x-value and the per-seed reports.
#[derive(Debug)]
pub struct SweepPoint {
    /// Deployment number or failure rate, depending on the sweep.
    pub x: f64,
    /// One report per seed.
    pub reports: Vec<RunReport>,
}

impl SweepPoint {
    /// Mean of a metric over the seeds.
    pub fn mean<F: Fn(&RunReport) -> f64>(&self, metric: F) -> f64 {
        mean(&self.reports, metric)
    }
}

/// Mean of a metric over `reports`.
fn mean(reports: &[RunReport], metric: impl Fn(&RunReport) -> f64) -> f64 {
    reports.iter().map(metric).sum::<f64>() / reports.len() as f64
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

    let adaptive_reports = opts.run_seeds(&adaptive_cfg);
    let fixed_reports = opts.run_seeds(&fixed_cfg);
    for (t0, t1) in [(500.0, 1500.0), (1500.0, 2500.0), (2500.0, 3500.0)] {
        let mean_rate = |reports: &[RunReport]| {
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
    let seeds = opts.seeds();
    let n = if opts.quick { 240 } else { 480 };
    let mut out = format!(
        "Section 3 — connectivity of PEAS working sets (N = {n}, Rp = 3 m)\n\
         seed   workers   max-NN (m)   bound (m)   lemma   conn@(1+sqrt5)Rp   conn@10m\n",
    );
    for &seed in &seeds {
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
            let reports = opts.run_seeds(&config);
            let mean_working = mean(&reports, |r| r.working_series().value_at(2_500.0));
            let spurious = mean(&reports, |r| {
                r.node_stats.window_silent as f64
                    / (r.node_stats.window_silent + r.node_stats.window_with_reply).max(1) as f64
            });
            let overhead = mean(&reports, |r| r.overhead_ratio());
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
    let seeds = opts.seeds();
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
        for &seed in &seeds {
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
        let k = seeds.len() as f64;
        let _ = writeln!(
            out,
            "{:>8}   {:>12.1}   {:>15.1}   {:>8}",
            enabled,
            working_sum / k,
            pair_sum / k,
            turnoffs / seeds.len() as u64
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
    let seeds = opts.seeds();
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
            seeds
                .iter()
                .map(|&seed| {
                    s.run(&scenario, seed)
                        .coverage_lifetime(1, LIFETIME_THRESHOLD)
                })
                .sum::<f64>()
                / seeds.len() as f64
        };
        let mut config = ScenarioConfig::paper(n);
        config.grab = None;
        let peas_life = mean(&opts.run_seeds(&config), |r| {
            r.coverage_lifetime(1, LIFETIME_THRESHOLD)
        });
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
        let reports = opts.run_seeds(&config);
        let c4 = mean(&reports, |r| r.coverage_lifetime(4, LIFETIME_THRESHOLD));
        let c1 = mean(&reports, |r| r.coverage_lifetime(1, LIFETIME_THRESHOLD));
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
        let reports = opts.run_seeds(&config);
        let working = mean(&reports, |r| r.working_series().value_at(2_500.0));
        let cov = mean(&reports, |r| r.coverage_series(1).value_at(2_500.0));
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
        let reports = opts.run_seeds(&config);
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
    let seeds = opts.seeds();
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
        for &seed in &seeds {
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
        let k = seeds.len() as f64;
        let _ = writeln!(
            out,
            "{rp:>6.1}   {:>12.1}   {:>10.3}   {:>10.3}   {connected:>7}/{}",
            working_sum / k,
            cov1 / k,
            cov4 / k,
            seeds.len()
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
        let reports = opts.run_seeds(&config);
        let wakeups = mean(&reports, |r| {
            r.wakeup_series().value_at(4_000.0) - r.wakeup_series().value_at(3_000.0)
        });
        let overhead = mean(&reports, |r| r.overhead_ratio());
        let cov4 = mean(&reports, |r| r.coverage_series(4).value_at(3_500.0));
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

    /// The deployment sweep's grid, read from `fig9.peas` without
    /// running it: each point's runs are consecutive, one per seed.
    #[test]
    fn deployment_sweep_groups_into_points_of_seeds() {
        let grid = |opts: ExperimentOpts| {
            let sweep = opts.sweep("fig9").expect("fig9.peas declares a sweep");
            let runs: Vec<(usize, u64)> = sweep
                .configs
                .iter()
                .map(|c| (c.node_count, c.seed))
                .collect();
            let expected: Vec<(usize, u64)> = sweep
                .xs
                .iter()
                .flat_map(|&x| sweep.seeds.iter().map(move |&seed| (x as usize, seed)))
                .collect();
            assert_eq!(runs, expected, "values-major, one run per seed");
            (sweep.xs, sweep.seeds)
        };
        assert_eq!(
            grid(ExperimentOpts::full()),
            (
                vec![160.0, 320.0, 480.0, 640.0, 800.0],
                vec![101, 102, 103, 104, 105]
            )
        );
        assert_eq!(
            grid(ExperimentOpts::quick()),
            (vec![160.0, 480.0, 800.0], vec![101, 102])
        );
        let seeded = ExperimentOpts {
            quick: true,
            seeds: Some(vec![7]),
        };
        assert_eq!(grid(seeded), (vec![160.0, 480.0, 800.0], vec![7]));
    }

    #[test]
    fn failure_sweep_quick_grid_keeps_first_middle_and_last_rates() {
        let sweep = ExperimentOpts::quick().sweep("fig12").expect("fig12 sweep");
        assert_eq!(sweep.xs, [5.33, 26.66, 48.0]);
        assert_eq!(sweep.configs.len(), 6);
    }

    #[test]
    fn a_missing_or_sweepless_file_is_an_error_naming_it() {
        let opts = ExperimentOpts::full();
        let missing = opts.sweep("no-such-scenario").expect_err("missing file");
        assert!(missing.contains("no-such-scenario.peas"), "{missing}");
        let single = opts.sweep("smoke").expect_err("smoke.peas has no sweep");
        assert!(
            single.contains("smoke.peas") && single.contains("no [sweeps]"),
            "{single}"
        );
    }

    #[test]
    fn experiment_seeds_follow_quick_and_the_seeds_flag() {
        assert_eq!(ExperimentOpts::full().seeds(), PAPER_SEEDS);
        assert_eq!(ExperimentOpts::quick().seeds(), [101, 102]);
        let seeded = ExperimentOpts {
            quick: false,
            seeds: Some(vec![3, 4, 5]),
        };
        assert_eq!(seeded.seeds(), [3, 4, 5]);
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
            reports: run_all(vec![cfg.with_seed(1)]),
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
