//! Parameter sweeps shared by the figure experiments.
//!
//! Figures 9–11 and Table 1 all read off the same deployment-number sweep,
//! and Figures 12–14 off the same failure-rate sweep; running the sweep
//! once and formatting four artifacts from it mirrors how the paper's own
//! numbers were produced (Section 5.2: "Given each node population, the
//! results are averaged over 5 simulation runs").

use peas_sim::{RunReport, Runner, ScenarioConfig};

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
        self.reports.iter().map(&metric).sum::<f64>() / self.reports.len() as f64
    }
}

/// The deployment-number sweep behind Figures 9–11 and Table 1.
///
/// The paper sweeps N ∈ {160, 320, 480, 640, 800} with a failure rate of
/// 10.66 per 5000 s, five seeds per point.
pub fn deployment_sweep(node_counts: &[usize], seeds: &[u64]) -> Vec<SweepPoint> {
    sweep(
        node_counts
            .iter()
            .map(|&n| (n as f64, ScenarioConfig::paper(n)))
            .collect(),
        seeds,
    )
}

/// The failure-rate sweep behind Figures 12–14: N = 480, rates from 5.33
/// to 48 per 5000 s in steps of 5.33.
pub fn failure_sweep(node_count: usize, rates: &[f64], seeds: &[u64]) -> Vec<SweepPoint> {
    sweep(
        rates
            .iter()
            .map(|&rate| {
                (
                    rate,
                    ScenarioConfig::paper(node_count).with_failure_rate(rate),
                )
            })
            .collect(),
        seeds,
    )
}

/// Flattens every (point, seed) run into one job list for the bounded
/// worker pool, so the whole sweep keeps all cores busy instead of
/// synchronizing after each sweep point, then reassembles the reports into
/// per-point groups in input order.
fn sweep(points: Vec<(f64, ScenarioConfig)>, seeds: &[u64]) -> Vec<SweepPoint> {
    assert!(
        points.is_empty() || !seeds.is_empty(),
        "need at least one seed"
    );
    let configs = points
        .iter()
        .flat_map(|(_, config)| seeds.iter().map(|&seed| config.clone().with_seed(seed)))
        .collect();
    let mut reports = Runner::configs(configs).run().into_iter();
    points
        .into_iter()
        .map(|(x, _)| SweepPoint {
            x,
            reports: reports.by_ref().take(seeds.len()).collect(),
        })
        .collect()
}

/// The paper's deployment numbers.
pub const PAPER_NODE_COUNTS: [usize; 5] = [160, 320, 480, 640, 800];

/// The paper's failure rates (per 5000 s): 5.33 × {1..9}.
pub const PAPER_FAILURE_RATES: [f64; 9] =
    [5.33, 10.66, 16.0, 21.33, 26.66, 32.0, 37.33, 42.66, 48.0];

/// The paper's seed count per point.
pub const PAPER_SEEDS: [u64; 5] = [101, 102, 103, 104, 105];

/// A reduced sweep for `--quick` runs.
pub const QUICK_NODE_COUNTS: [usize; 3] = [160, 320, 480];
/// Reduced failure rates for `--quick`.
pub const QUICK_FAILURE_RATES: [f64; 3] = [5.33, 26.66, 48.0];
/// Reduced seeds for `--quick`.
pub const QUICK_SEEDS: [u64; 2] = [101, 102];

#[cfg(test)]
mod tests {
    use super::*;
    use peas_des::time::SimTime;

    #[test]
    fn sweep_points_carry_reports_per_seed() {
        // Miniature sweep: small populations, short horizon.
        let mut cfg = ScenarioConfig::paper(40);
        cfg.horizon = SimTime::from_secs(300);
        let points: Vec<SweepPoint> = [30usize, 40]
            .iter()
            .map(|&n| {
                let mut c = cfg.clone();
                c.node_count = n;
                SweepPoint {
                    x: n as f64,
                    reports: Runner::new(c).seeds(&[1, 2]).run(),
                }
            })
            .collect();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].reports.len(), 2);
        let mean = points[1].mean(|r| r.total_wakeups() as f64);
        assert!(mean > 0.0);
    }

    #[test]
    fn paper_constants_match_section_5() {
        assert_eq!(PAPER_NODE_COUNTS, [160, 320, 480, 640, 800]);
        assert_eq!(PAPER_FAILURE_RATES.len(), 9);
        assert!((PAPER_FAILURE_RATES[8] - 48.0).abs() < 1e-12);
        assert!((PAPER_FAILURE_RATES[1] - 10.66).abs() < 1e-12);
        assert_eq!(PAPER_SEEDS.len(), 5);
    }
}
