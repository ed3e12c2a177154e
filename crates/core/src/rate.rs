//! Aggregate probing-rate measurement at working nodes (Equation 1).
//!
//! Because each sleeping neighbor's wakeups are exponentially distributed,
//! the PROBEs a working node hears form the superposition of Poisson
//! processes — itself Poisson with rate Λ = Σλᵢ (Equation 3). The working
//! node estimates Λ without per-neighbor state: it counts `k` PROBEs and
//! divides by the elapsed time, `λ̂ = k / (t − t₀)` (Equation 1). By the
//! central limit theorem, k ≥ 16 puts the estimate within 1% with 99%
//! confidence; the paper uses k = 32 (Section 2.2.1).

use peas_des::time::{SimDuration, SimTime};

/// A measured aggregate probing rate λ̂, wakeups per second.
///
/// Newtype so that measured rates can't be mixed up with per-node rates in
/// the adjustment formula.
#[derive(Clone, Copy, Debug, PartialEq, PartialOrd)]
pub struct RateMeasurement(f64);

impl RateMeasurement {
    /// Wraps a measured rate.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not strictly positive and finite.
    pub fn new(rate: f64) -> RateMeasurement {
        assert!(
            rate.is_finite() && rate > 0.0,
            "measured rate must be positive and finite, got {rate}"
        );
        RateMeasurement(rate)
    }

    /// The measured rate in wakeups/second.
    pub fn per_second(self) -> f64 {
        self.0
    }
}

impl std::fmt::Display for RateMeasurement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.6}/s", self.0)
    }
}

/// The `k`-PROBE estimator a working node runs (Section 2.2, "Measuring
/// aggregate λ at a working node").
///
/// It holds only the open window and the last measurement: 24 bytes, of
/// which a million-node world keeps one per sensor. The threshold `k` and
/// the window cap are the network's, passed in by the node from its
/// shared [`crate::PeasConfig`] (`measure_threshold`,
/// `measure_window_max`).
///
/// # Examples
///
/// ```
/// use peas::rate::RateEstimator;
/// use peas_des::time::{SimDuration, SimTime};
///
/// let (k, cap) = (2, SimDuration::MAX);
/// let mut est = RateEstimator::new();
/// assert_eq!(est.on_probe(SimTime::from_secs(0), k, cap), None);  // arms t0
/// assert_eq!(est.on_probe(SimTime::from_secs(10), k, cap), None); // count = 1
/// let m = est.on_probe(SimTime::from_secs(20), k, cap).unwrap();  // count = 2 = k
/// assert!((m.per_second() - 0.1).abs() < 1e-12);                  // 2 / 20 s
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RateEstimator {
    /// When the open window started; meaningful only while `armed`.
    t0: SimTime,
    /// The latest completed measurement λ̂, or 0.0 before the first (a
    /// [`RateMeasurement`] is always above 0).
    latest: f64,
    /// PROBEs counted since `t0`.
    count: u32,
    /// Whether the first PROBE has opened a window.
    armed: bool,
}

impl RateEstimator {
    /// An estimator that has heard no PROBE.
    pub fn new() -> RateEstimator {
        RateEstimator::default()
    }

    /// Records a PROBE heard at `now`. Returns a fresh measurement when
    /// this PROBE is the `k`-th since the window opened, or when the
    /// window is `max_window` old, measuring over however many PROBEs
    /// arrived by then.
    ///
    /// Exactly the paper's procedure: the first PROBE sets the counter to 0
    /// and `t₀ = now`; each later PROBE increments the counter; on reaching
    /// `k`, λ̂ = k / (now − t₀), then `t₀ = now` and the counter resets.
    ///
    /// The paper's procedure waits for exactly `k` PROBEs, which takes
    /// `k/Λ` seconds — fine at Λ ≈ λd (1600 s at k = 32), but once the
    /// aggregate rate falls, an unbounded window keeps averaging in
    /// ancient (boot-era) probes and reports a rate far above the current
    /// one, which Equation 2 then turns into ever-lower prober rates. A
    /// bounded window caps that memory: λ̂ tracks the current rate with at
    /// most `max_window` of lag. `PeasConfig::paper` uses `8/λd` (400 s
    /// at the paper's λd); `SimDuration::MAX` leaves windows unbounded.
    /// [`crate::PeasConfig::validate`] keeps `k` at least 1 and
    /// `max_window` positive.
    pub fn on_probe(
        &mut self,
        now: SimTime,
        k: u32,
        max_window: SimDuration,
    ) -> Option<RateMeasurement> {
        if !self.armed {
            self.armed = true;
            self.t0 = now;
            self.count = 0;
            return None;
        }
        self.count += 1;
        let elapsed_d = now.saturating_since(self.t0);
        if self.count < k && elapsed_d < max_window {
            return None;
        }
        let elapsed = elapsed_d.as_secs_f64();
        // Degenerate case: k probes in the same instant (only possible in
        // zero-delay unit tests). Skip the measurement and restart the
        // window rather than produce λ̂ = ∞.
        let measurement = if elapsed > 0.0 {
            Some(RateMeasurement::new(self.count as f64 / elapsed))
        } else {
            None
        };
        self.t0 = now;
        self.count = 0;
        if let Some(m) = measurement {
            self.latest = m.0;
        }
        measurement
    }

    /// The most recent completed measurement, if any.
    pub fn latest(&self) -> Option<RateMeasurement> {
        (self.latest > 0.0).then_some(RateMeasurement(self.latest))
    }

    /// The estimate a REPLY should carry *now* — the latest completed
    /// measurement capped by the open window's evidence.
    ///
    /// The paper leaves unspecified what a working node reports between
    /// measurements; taken literally, λ̂ stays frozen for `k/Λ` seconds
    /// (1600 s at k = 32, Λ = λd = 0.02/s). A stale-high boot measurement
    /// then slashes every prober repeatedly and the aggregate rate spirals
    /// far below λd. The cap repairs this: having counted `c ≥ 2` probes
    /// over the `e ≥ min_elapsed` seconds since the window opened, `c/e`
    /// estimates the *current* rate, so the reported value tracks reality
    /// as the window ages instead of freezing at the last completed
    /// measurement. Young or near-empty windows contribute nothing — a
    /// freshly promoted working node reports `None` rather than a wild
    /// small-sample estimate.
    pub fn current_estimate(
        &self,
        now: SimTime,
        min_elapsed: SimDuration,
    ) -> Option<RateMeasurement> {
        let elapsed = now.saturating_since(self.t0);
        let cap = (self.armed && self.count >= 2 && elapsed >= min_elapsed && !elapsed.is_zero())
            .then(|| self.count as f64 / elapsed.as_secs_f64());
        match (self.latest(), cap) {
            (Some(m), Some(c)) => Some(RateMeasurement::new(m.per_second().min(c))),
            (Some(m), None) => Some(m),
            (None, Some(c)) => Some(RateMeasurement::new(c)),
            (None, None) => None,
        }
    }

    /// PROBEs counted in the currently open window.
    pub fn pending_count(&self) -> u32 {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unbounded windows: only `k` closes them.
    const NO_CAP: SimDuration = SimDuration::MAX;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    #[test]
    fn first_probe_arms_without_measuring() {
        let mut est = RateEstimator::new();
        assert_eq!(est.on_probe(t(5.0), 32, NO_CAP), None);
        assert_eq!(est.pending_count(), 0);
        assert_eq!(est.latest(), None);
    }

    #[test]
    fn measures_after_k_probes() {
        // k = 4, probes every 2 s after arming: measurement at the 5th
        // probe overall, λ̂ = 4 / 8 s = 0.5.
        let mut est = RateEstimator::new();
        assert_eq!(est.on_probe(t(0.0), 4, NO_CAP), None);
        for i in 1..4 {
            assert_eq!(est.on_probe(t(2.0 * i as f64), 4, NO_CAP), None);
        }
        let m = est.on_probe(t(8.0), 4, NO_CAP).unwrap();
        assert!((m.per_second() - 0.5).abs() < 1e-12);
        assert_eq!(est.latest(), Some(m));
        assert_eq!(est.pending_count(), 0);
    }

    #[test]
    fn window_restarts_after_measurement() {
        let mut est = RateEstimator::new();
        est.on_probe(t(0.0), 2, NO_CAP);
        est.on_probe(t(1.0), 2, NO_CAP);
        let first = est.on_probe(t(2.0), 2, NO_CAP).unwrap();
        assert!((first.per_second() - 1.0).abs() < 1e-12);
        // Next window: probes at 4 and 12 -> 2 / 10 s = 0.2.
        assert_eq!(est.on_probe(t(4.0), 2, NO_CAP), None);
        let second = est.on_probe(t(12.0), 2, NO_CAP).unwrap();
        assert!((second.per_second() - 0.2).abs() < 1e-12);
        assert_eq!(est.latest(), Some(second));
    }

    #[test]
    fn latest_persists_between_windows() {
        let mut est = RateEstimator::new();
        est.on_probe(t(0.0), 2, NO_CAP);
        est.on_probe(t(5.0), 2, NO_CAP);
        let m = est.on_probe(t(10.0), 2, NO_CAP).unwrap();
        est.on_probe(t(11.0), 2, NO_CAP); // mid-window
        assert_eq!(est.latest(), Some(m));
    }

    #[test]
    fn simultaneous_probes_do_not_divide_by_zero() {
        let mut est = RateEstimator::new();
        est.on_probe(t(3.0), 1, NO_CAP);
        // Second probe at the exact same instant: skipped, no measurement.
        assert_eq!(est.on_probe(t(3.0), 1, NO_CAP), None);
        assert_eq!(est.latest(), None);
        // A later probe measures over the restarted window.
        let m = est.on_probe(t(5.0), 1, NO_CAP).unwrap();
        assert!((m.per_second() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn estimator_tracks_poisson_rate_accurately() {
        // Feed a synthetic Poisson process of rate 0.02/s (the paper's λd)
        // and verify the k = 32 estimates cluster within a few percent.
        use peas_des::rng::SimRng;
        let mut rng = SimRng::new(21);
        let mut est = RateEstimator::new();
        let mut now = 0.0;
        let mut estimates = Vec::new();
        for _ in 0..20_000 {
            now += rng.exp_secs(0.02);
            if let Some(m) = est.on_probe(SimTime::from_secs_f64(now), 32, NO_CAP) {
                estimates.push(m.per_second());
            }
        }
        assert!(estimates.len() > 500);
        let mean = estimates.iter().sum::<f64>() / estimates.len() as f64;
        // k/T over a Gamma(k, λ) window has mean k·λ/(k−1): a small upward
        // bias of 1/(k−1) ≈ 3.2% at k = 32, shrinking as k grows — part of
        // why the paper prefers k = 32 over the CLT minimum of 16.
        let expected = 32.0 * 0.02 / 31.0;
        assert!(
            (mean - expected).abs() / expected < 0.02,
            "mean estimate {mean} vs theoretical {expected}"
        );
    }

    #[test]
    fn window_times_out_with_partial_count() {
        // k = 32 but max_window = 100 s: the probe arriving after the
        // window aged out closes it with whatever count accumulated.
        let cap = SimDuration::from_secs(100);
        let mut est = RateEstimator::new();
        est.on_probe(t(0.0), 32, cap); // arms
        est.on_probe(t(40.0), 32, cap); // count 1
        est.on_probe(t(80.0), 32, cap); // count 2
        let m = est.on_probe(t(120.0), 32, cap).expect("window timed out");
        // 3 probes over 120 s.
        assert!((m.per_second() - 3.0 / 120.0).abs() < 1e-12);
        assert_eq!(est.pending_count(), 0);
    }

    #[test]
    fn current_estimate_caps_stale_measurements() {
        let mut est = RateEstimator::new();
        // Complete a measurement at a high rate: 2 probes / 2 s = 1.0/s.
        est.on_probe(t(0.0), 2, NO_CAP);
        est.on_probe(t(1.0), 2, NO_CAP);
        est.on_probe(t(2.0), 2, NO_CAP);
        assert!((est.latest().unwrap().per_second() - 1.0).abs() < 1e-12);
        // Then the stream dries up; two stragglers over 400 s.
        est.on_probe(t(200.0), 2, NO_CAP);
        est.on_probe(t(400.0), 2, NO_CAP);
        let min_elapsed = SimDuration::from_secs(50);
        let reported = est.current_estimate(t(400.0), min_elapsed).unwrap();
        // The open window (2 probes over 398 s) caps the stale 1.0/s.
        assert!(
            reported.per_second() < 0.01,
            "stale estimate not capped: {reported}"
        );
    }

    #[test]
    fn current_estimate_requires_evidence() {
        let min_elapsed = SimDuration::from_secs(50);
        let mut est = RateEstimator::new();
        // No probes at all: nothing to report.
        assert_eq!(est.current_estimate(t(100.0), min_elapsed), None);
        est.on_probe(t(0.0), 32, NO_CAP); // arms only (count 0)
        assert_eq!(est.current_estimate(t(100.0), min_elapsed), None);
        est.on_probe(t(10.0), 32, NO_CAP); // count 1: still below the 2-probe floor
        assert_eq!(est.current_estimate(t(100.0), min_elapsed), None);
        est.on_probe(t(20.0), 32, NO_CAP); // count 2 and window old enough
        let m = est.current_estimate(t(100.0), min_elapsed).unwrap();
        assert!((m.per_second() - 0.02).abs() < 1e-12);
        // A too-young window reports nothing even with 2 probes.
        assert_eq!(est.current_estimate(t(30.0), min_elapsed), None);
    }

    #[test]
    fn estimator_footprint_stays_small() {
        // One estimator per sensor: the open window and the last
        // measurement, with k and the window cap left in the config.
        assert!(
            std::mem::size_of::<RateEstimator>() <= 24,
            "RateEstimator grew to {} bytes",
            std::mem::size_of::<RateEstimator>()
        );
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn measurement_rejects_zero() {
        let _ = RateMeasurement::new(0.0);
    }

    #[test]
    fn measurement_display() {
        assert_eq!(RateMeasurement::new(0.02).to_string(), "0.020000/s");
    }
}
