//! The [`Runner`] facade: one builder for every way the repo executes
//! simulations.
//!
//! The paper averages every data point over 5 simulation runs
//! (Section 5.2); `Runner::new(cfg).seeds(&SEEDS).run()` reproduces that:
//! one [`World`] per (config, seed) job, executed on a bounded worker
//! pool, reports returned in job order.

use peas_analysis::Summary;

use crate::config::ScenarioConfig;
use crate::metrics::RunReport;
use crate::world::World;

/// Builder-style facade over every execution mode: single runs, multi-seed
/// replication, heterogeneous config sweeps, serial or bounded-parallel.
///
/// The job list is always expanded eagerly and executed in a deterministic
/// order: [`Runner::run`] returns reports in *job order* no matter which
/// worker finished first, so downstream consumers (sweep points, golden
/// fingerprints, a merged [`crate::cache::SweepPlan`]) can index results
/// positionally.
///
/// ```
/// use peas_sim::{Runner, ScenarioConfig};
///
/// let reports = Runner::new(ScenarioConfig::small())
///     .seeds(&[1, 2])
///     .parallelism(2)
///     .run();
/// assert_eq!(reports.len(), 2);
/// assert_eq!(reports[0].seed, 1);
/// ```
#[derive(Clone, Debug)]
pub struct Runner {
    /// The expanded job list, in execution (and result) order.
    jobs: Vec<ScenarioConfig>,
    /// Worker-thread cap; `None` means `available_parallelism`.
    parallelism: Option<usize>,
}

impl Runner {
    /// A runner with a single job: `config` as-is.
    pub fn new(config: ScenarioConfig) -> Runner {
        Runner {
            jobs: vec![config],
            parallelism: None,
        }
    }

    /// A runner over an explicit job list (a heterogeneous sweep). The
    /// list may be empty, in which case [`Runner::run`] returns no
    /// reports.
    pub fn configs(configs: Vec<ScenarioConfig>) -> Runner {
        Runner {
            jobs: configs,
            parallelism: None,
        }
    }

    /// Replicates every current job once per seed, in values-major order
    /// (for each job, each seed) — the same flattening the `.peas`
    /// `[sweeps]` expansion uses.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty.
    #[must_use]
    pub fn seeds(mut self, seeds: &[u64]) -> Runner {
        assert!(!seeds.is_empty(), "need at least one seed");
        self.jobs = self
            .jobs
            .iter()
            .flat_map(|job| seeds.iter().map(|&seed| job.clone().with_seed(seed)))
            .collect();
        self
    }

    /// Caps the worker pool at `workers` OS threads (default:
    /// [`std::thread::available_parallelism`]). `parallelism(1)` forces
    /// fully serial execution on the caller's thread.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is 0.
    #[must_use]
    pub fn parallelism(mut self, workers: usize) -> Runner {
        assert!(workers >= 1, "parallelism must be at least 1");
        self.parallelism = Some(workers);
        self
    }

    /// Number of jobs the runner will execute.
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// The expanded job list, in execution order.
    pub fn job_configs(&self) -> &[ScenarioConfig] {
        &self.jobs
    }

    /// Executes every job and returns the reports **in job order**,
    /// regardless of which worker finished first.
    ///
    /// At most `min(parallelism, jobs)` worker threads are spawned;
    /// workers pull the next un-started job from a shared counter, so a
    /// slow run never leaves cores idle while work remains. With a single
    /// worker (or a single job) the jobs simply run on the caller's
    /// thread. Each run is fully independent (its own world, RNG streams
    /// and medium), so the reports are identical to a serial run's — only
    /// wall time changes.
    ///
    /// # Panics
    ///
    /// Panics if any individual run panics (worker panics propagate
    /// through [`std::thread::scope`]) — e.g. when a config fails
    /// validation.
    pub fn run(self) -> Vec<RunReport> {
        let workers = self
            .parallelism
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
            .min(self.jobs.len());
        if workers <= 1 {
            return self
                .jobs
                .into_iter()
                .map(|config| World::new(config).run())
                .collect();
        }
        let jobs = self.jobs;
        let next = std::sync::atomic::AtomicUsize::new(0);
        let slots: Vec<std::sync::OnceLock<RunReport>> = (0..jobs.len())
            .map(|_| std::sync::OnceLock::new())
            .collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let Some(config) = jobs.get(i) else { break };
                    let filled = slots[i].set(World::new(config.clone()).run());
                    debug_assert!(filled.is_ok(), "job {i} claimed twice");
                });
            }
        });
        slots
            .into_iter()
            // peas-lint: allow(r1-unchecked-panic) -- scope join guarantees every claimed slot was filled; the shared counter claims each exactly once
            .map(|slot| slot.into_inner().expect("worker pool dropped a job"))
            .collect()
    }

    /// Executes a single-job runner and returns its one report.
    ///
    /// # Panics
    ///
    /// Panics if the job list does not hold exactly one config (use
    /// [`Runner::run`] for multi-job runners), or if the run itself
    /// panics.
    pub fn run_single(self) -> RunReport {
        assert_eq!(
            self.jobs.len(),
            1,
            "run_single needs exactly one job, got {}",
            self.jobs.len()
        );
        let mut reports = self.run();
        // peas-lint: allow(r1-unchecked-panic) -- the assert above pins the job list to length 1
        reports.pop().expect("one job yields one report")
    }
}

/// One averaged figure point.
#[derive(Clone, Debug)]
pub struct AveragedPoint {
    /// The x-value of the figure (deployment number, failure rate, …).
    pub x: f64,
    /// Summary of the metric across seeds.
    pub summary: Summary,
}

impl AveragedPoint {
    /// Builds a point from per-seed metric values.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn new(x: f64, values: &[f64]) -> AveragedPoint {
        AveragedPoint {
            x,
            summary: Summary::from_slice(values),
        }
    }
}

/// Extracts a metric from every report and averages it.
pub fn average_metric<F>(x: f64, reports: &[RunReport], metric: F) -> AveragedPoint
where
    F: Fn(&RunReport) -> f64,
{
    let values: Vec<f64> = reports.iter().map(metric).collect();
    AveragedPoint::new(x, &values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use peas_des::time::SimTime;

    fn tiny() -> ScenarioConfig {
        let mut c = ScenarioConfig::small();
        c.node_count = 25;
        c.horizon = SimTime::from_secs(300);
        c
    }

    #[test]
    fn runner_produces_one_report_per_seed() {
        let reports = Runner::new(tiny()).seeds(&[1, 2, 3]).parallelism(1).run();
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].seed, 1);
        assert_eq!(reports[2].seed, 3);
        // Different seeds, different randomness.
        assert_ne!(reports[0].total_wakeups(), reports[1].total_wakeups());
    }

    #[test]
    fn average_metric_summarizes() {
        let reports = Runner::new(tiny()).seeds(&[4, 5]).run();
        let point = average_metric(25.0, &reports, |r| r.total_wakeups() as f64);
        assert_eq!(point.x, 25.0);
        assert_eq!(point.summary.n, 2);
        assert!(point.summary.mean > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn empty_seed_list_rejected() {
        let _ = Runner::new(tiny()).seeds(&[]);
    }

    #[test]
    #[should_panic(expected = "parallelism must be at least 1")]
    fn zero_parallelism_rejected() {
        let _ = Runner::new(tiny()).parallelism(0);
    }

    #[test]
    #[should_panic(expected = "exactly one job")]
    fn run_single_requires_one_job() {
        let _ = Runner::new(tiny()).seeds(&[1, 2]).run_single();
    }

    #[test]
    fn empty_config_list_runs_to_empty_report_list() {
        assert!(Runner::configs(Vec::new()).run().is_empty());
    }

    #[test]
    fn configs_cross_seeds_expand_values_major() {
        let runner = Runner::configs(vec![tiny().with_seed(0), {
            let mut c = tiny();
            c.node_count = 30;
            c
        }])
        .seeds(&[7, 8]);
        let jobs = runner.job_configs();
        assert_eq!(jobs.len(), 4);
        assert_eq!(
            jobs.iter()
                .map(|c| (c.node_count, c.seed))
                .collect::<Vec<_>>(),
            vec![(25, 7), (25, 8), (30, 7), (30, 8)]
        );
    }

    #[test]
    fn bounded_pool_preserves_job_order_with_more_jobs_than_cores() {
        let configs: Vec<ScenarioConfig> = (1..=9).map(|seed| tiny().with_seed(seed)).collect();
        let reports = Runner::configs(configs).run();
        assert_eq!(reports.len(), 9);
        for (i, report) in reports.iter().enumerate() {
            assert_eq!(report.seed, i as u64 + 1);
        }
    }

    /// Regression test for result ordering under adversarial completion
    /// order: the first job is much heavier than the rest, so with 2+
    /// workers every later job *completes* before job 0 does. The returned
    /// reports must still be in input order (a merged sweep plan reads
    /// reports positionally).
    #[test]
    fn job_order_preserved_when_completion_order_differs() {
        let mut heavy = tiny().with_seed(1);
        heavy.horizon = SimTime::from_secs(2_000);
        let mut configs = vec![heavy.clone()];
        for seed in 2..=6 {
            let mut light = tiny().with_seed(seed);
            light.horizon = SimTime::from_secs(150);
            configs.push(light);
        }
        let reports = Runner::configs(configs).parallelism(3).run();
        assert_eq!(reports.len(), 6);
        for (i, report) in reports.iter().enumerate() {
            assert_eq!(report.seed, i as u64 + 1, "report {i} out of input order");
        }
        // The heavy job really was the long one (sanity check on the setup).
        assert!(reports[0].end_secs > reports[1].end_secs);
    }

    #[test]
    fn parallel_runner_matches_serial() {
        let config = tiny();
        let serial = Runner::new(config.clone())
            .seeds(&[7, 8, 9])
            .parallelism(1)
            .run();
        let parallel = Runner::new(config).seeds(&[7, 8, 9]).run();
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.samples, b.samples);
            assert_eq!(a.node_stats, b.node_stats);
            assert_eq!(a.medium, b.medium);
        }
    }
}
