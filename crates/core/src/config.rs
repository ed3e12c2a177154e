//! PEAS protocol configuration.

use peas_des::time::SimDuration;

/// The most PROBEs one wakeup may send ([`PeasConfig::probe_count`]). A
/// 25-byte PROBE takes 10 ms at the paper's 20 kbps, so the paper's
/// 150 ms REPLY window carries at most 15 of them; the paper sends 3. A
/// wakeup asks its host for `probe_count + 1` timers at once, so the
/// bound also caps what one input can make a host allocate.
pub const MAX_PROBE_COUNT: u32 = 16;

/// Fixed-transmission-power operation (Section 4, "Nodes with fixed
/// transmission power").
///
/// Control frames are transmitted at full power (`tx_range`), and nodes
/// apply a received-signal-strength threshold equivalent to the probing
/// range: a working node reacts only to PROBEs that appear to come from
/// within `Rp`, and a probing node only honours REPLYs that do.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FixedPower {
    /// The radio's fixed transmission range (`Rt`), meters.
    pub tx_range: f64,
}

/// All tunables of the PEAS protocol.
///
/// [`PeasConfig::paper`] reproduces the evaluation settings of Section 5:
/// `Rp` = 3 m, λ₀ = 0.1 /s, λd = 0.02 /s, k = 32, three PROBEs per wakeup
/// and a 100 ms REPLY-collection window.
///
/// # Examples
///
/// ```
/// use peas::PeasConfig;
///
/// let config = PeasConfig::paper();
/// assert_eq!(config.probing_range, 3.0);
/// let custom = PeasConfig::builder()
///     .probing_range(6.0)
///     .desired_rate(0.01)
///     .build();
/// assert_eq!(custom.probing_range, 6.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct PeasConfig {
    /// The probing range `Rp` in meters. Working nodes answer PROBEs heard
    /// within this range; it controls working-node density (Section 2.1).
    pub probing_range: f64,
    /// Initial per-node probing rate λ₀ (wakeups/second). Controls how fast
    /// the network acquires working nodes during boot-up.
    pub initial_rate: f64,
    /// Desired *aggregate* probing rate λd perceived by each working node
    /// (wakeups/second); set by the application from its tolerance of
    /// sensing interruptions (Section 2.2).
    pub desired_rate: f64,
    /// Number of PROBEs a working node must count before computing a rate
    /// measurement (`k` in Equation 1; Section 2.2.1 argues k ≥ 16 and the
    /// paper selects 32).
    pub measure_threshold: u32,
    /// PROBE transmissions per wakeup; Section 4 found three sufficient
    /// against loss rates up to 10%. At most [`MAX_PROBE_COUNT`].
    pub probe_count: u32,
    /// Interval over which the multiple PROBEs are randomly spread.
    pub probe_spread: SimDuration,
    /// How long a probing node stays awake collecting REPLYs. The paper
    /// waits 100 ms; we use 150 ms so a REPLY that backs off behind the
    /// probe burst and then defers to a busy channel still *completes*
    /// inside the window (backoff base + max backoff + airtime + CSMA
    /// slack). A REPLY that finishes after the window closes is lost and
    /// manufactures a redundant working node.
    pub reply_window: SimDuration,
    /// Base delay before a working node's REPLY: long enough that the
    /// prober's multi-PROBE burst (and its last frame) has finished, so the
    /// half-duplex prober is actually listening. Defaults to
    /// `probe_spread` + one control-frame airtime.
    pub reply_backoff_base: SimDuration,
    /// Maximum random backoff *added* to the base before sending a REPLY,
    /// to reduce collisions among multiple repliers (Section 2.1).
    pub reply_backoff_max: SimDuration,
    /// Enable the Section 4 turn-off rule: a working node overhearing a
    /// REPLY from another working node goes back to sleep if it has been
    /// working for a *shorter* time (`Tw` comparison).
    pub turnoff_enabled: bool,
    /// `Tw` differences at or below this tolerance count as a tie, resolved
    /// by node id (the higher id yields). Without a tie-break two nodes
    /// that started working near-simultaneously — common in the boot wave —
    /// each measure their own `Tw` as larger (REPLY latency) and deadlock
    /// as a redundant pair forever. Must cover the worst-case REPLY latency
    /// (backoff + airtime + retries).
    pub turnoff_tie_epsilon: SimDuration,
    /// Clamp on the per-node probing rate λ, keeping the adaptive rule
    /// numerically sane under measurement noise.
    pub rate_bounds: (f64, f64),
    /// Upper bound on a measurement window's duration: windows also close
    /// after this long with however many PROBEs arrived (see
    /// `RateEstimator::on_probe`). Keeps λ̂ tracking the *current*
    /// aggregate rate instead of averaging in boot-era probe bursts.
    pub measure_window_max: SimDuration,
    /// Bounds on the multiplicative change a single REPLY may apply to λ:
    /// Equation 2's factor `λd/λ̂` is clamped to `[down, up]`. The bounds
    /// are asymmetric (default halve-at-most, ×8-at-most) because the
    /// dynamics are asymmetric: a node slashed to a very low rate sleeps
    /// so long it can barely receive corrective feedback, so descents must
    /// be gentle while recoveries may be fast.
    pub adjust_factor_bounds: (f64, f64),
    /// Fixed-transmission-power mode; `None` means variable power (nodes
    /// shape their transmissions to exactly `Rp`).
    pub fixed_power: Option<FixedPower>,
}

impl PeasConfig {
    /// The configuration used throughout the paper's evaluation (Section 5).
    pub fn paper() -> PeasConfig {
        PeasConfig {
            probing_range: 3.0,
            initial_rate: 0.1,
            desired_rate: 0.02,
            measure_threshold: 32,
            probe_count: 3,
            probe_spread: SimDuration::from_millis(40),
            reply_window: SimDuration::from_millis(150),
            reply_backoff_base: SimDuration::from_millis(50),
            reply_backoff_max: SimDuration::from_millis(50),
            turnoff_enabled: true,
            turnoff_tie_epsilon: SimDuration::from_millis(500),
            rate_bounds: (1e-5, 10.0),
            measure_window_max: SimDuration::from_secs(400), // 8/λd
            adjust_factor_bounds: (0.5, 8.0),
            fixed_power: None,
        }
    }

    /// Starts a builder from the paper defaults.
    pub fn builder() -> PeasConfigBuilder {
        PeasConfigBuilder {
            config: PeasConfig::paper(),
        }
    }

    /// The range PROBE/REPLY frames are transmitted at: `Rp` under variable
    /// power, `Rt` under fixed power.
    pub fn control_tx_range(&self) -> f64 {
        match self.fixed_power {
            Some(fp) => fp.tx_range,
            None => self.probing_range,
        }
    }

    /// Validates the invariants the protocol relies on.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint: non-positive ranges or rates, `k` or probe count of
    /// zero, a probe count above [`MAX_PROBE_COUNT`], a probe spread longer than the reply window (later PROBEs
    /// would fall outside the listen window), inverted rate bounds, or a
    /// fixed-power range smaller than the probing range.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.probing_range.is_finite() && self.probing_range > 0.0) {
            return Err(ConfigError("probing_range must be positive"));
        }
        if !(self.initial_rate.is_finite() && self.initial_rate > 0.0) {
            return Err(ConfigError("initial_rate must be positive"));
        }
        if !(self.desired_rate.is_finite() && self.desired_rate > 0.0) {
            return Err(ConfigError("desired_rate must be positive"));
        }
        if self.measure_threshold == 0 {
            return Err(ConfigError("measure_threshold (k) must be at least 1"));
        }
        if self.probe_count == 0 {
            return Err(ConfigError("probe_count must be at least 1"));
        }
        if self.probe_count > MAX_PROBE_COUNT {
            return Err(ConfigError("probe_count must be at most 16"));
        }
        if self.probe_spread > self.reply_window {
            return Err(ConfigError(
                "probe_spread must not exceed reply_window (probes must fit in the listen window)",
            ));
        }
        if self.reply_backoff_base + self.reply_backoff_max > self.reply_window {
            return Err(ConfigError(
                "reply_backoff_base + reply_backoff_max must fit inside reply_window",
            ));
        }
        let (down, up) = self.adjust_factor_bounds;
        if !(down.is_finite() && up.is_finite() && down > 0.0 && down <= 1.0 && up >= 1.0) {
            return Err(ConfigError(
                "adjust_factor_bounds must satisfy 0 < down <= 1 <= up",
            ));
        }
        if self.measure_window_max.is_zero() {
            return Err(ConfigError("measure_window_max must be positive"));
        }
        let (lo, hi) = self.rate_bounds;
        if !(lo > 0.0 && hi.is_finite() && lo < hi) {
            return Err(ConfigError("rate_bounds must satisfy 0 < lo < hi < inf"));
        }
        if !(self.desired_rate >= lo && self.desired_rate <= hi) {
            return Err(ConfigError("desired_rate must lie within rate_bounds"));
        }
        if !(self.initial_rate >= lo && self.initial_rate <= hi) {
            return Err(ConfigError("initial_rate must lie within rate_bounds"));
        }
        if let Some(fp) = self.fixed_power {
            if !(fp.tx_range.is_finite() && fp.tx_range >= self.probing_range) {
                return Err(ConfigError(
                    "fixed-power tx_range must be at least the probing range",
                ));
            }
        }
        Ok(())
    }
}

impl Default for PeasConfig {
    fn default() -> Self {
        PeasConfig::paper()
    }
}

/// A violated [`PeasConfig`] constraint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConfigError(&'static str);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid PEAS configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`PeasConfig`], starting from the paper defaults.
#[derive(Clone, Debug)]
pub struct PeasConfigBuilder {
    config: PeasConfig,
}

impl PeasConfigBuilder {
    /// Sets the probing range `Rp` (meters).
    pub fn probing_range(mut self, meters: f64) -> Self {
        self.config.probing_range = meters;
        self
    }

    /// Sets the initial per-node probing rate λ₀ (wakeups/second).
    pub fn initial_rate(mut self, rate: f64) -> Self {
        self.config.initial_rate = rate;
        self
    }

    /// Sets the desired aggregate probing rate λd (wakeups/second).
    pub fn desired_rate(mut self, rate: f64) -> Self {
        self.config.desired_rate = rate;
        self
    }

    /// Sets the measurement threshold `k`.
    pub fn measure_threshold(mut self, k: u32) -> Self {
        self.config.measure_threshold = k;
        self
    }

    /// Sets the number of PROBEs transmitted per wakeup.
    pub fn probe_count(mut self, count: u32) -> Self {
        self.config.probe_count = count;
        self
    }

    /// Sets the spread interval for multiple PROBEs.
    pub fn probe_spread(mut self, spread: SimDuration) -> Self {
        self.config.probe_spread = spread;
        self
    }

    /// Sets the REPLY-collection window length.
    pub fn reply_window(mut self, window: SimDuration) -> Self {
        self.config.reply_window = window;
        self
    }

    /// Sets the maximum REPLY backoff.
    pub fn reply_backoff_max(mut self, backoff: SimDuration) -> Self {
        self.config.reply_backoff_max = backoff;
        self
    }

    /// Sets the base REPLY delay (before the random backoff).
    pub fn reply_backoff_base(mut self, base: SimDuration) -> Self {
        self.config.reply_backoff_base = base;
        self
    }

    /// Sets the per-REPLY rate-adjustment factor bounds `(down, up)`.
    pub fn adjust_factor_bounds(mut self, down: f64, up: f64) -> Self {
        self.config.adjust_factor_bounds = (down, up);
        self
    }

    /// Sets the maximum measurement-window duration.
    pub fn measure_window_max(mut self, window: SimDuration) -> Self {
        self.config.measure_window_max = window;
        self
    }

    /// Enables or disables the Section 4 turn-off rule.
    pub fn turnoff(mut self, enabled: bool) -> Self {
        self.config.turnoff_enabled = enabled;
        self
    }

    /// Sets the `Tw` tie tolerance for the turn-off rule.
    pub fn turnoff_tie_epsilon(mut self, epsilon: SimDuration) -> Self {
        self.config.turnoff_tie_epsilon = epsilon;
        self
    }

    /// Sets the clamp on per-node probing rates.
    pub fn rate_bounds(mut self, lo: f64, hi: f64) -> Self {
        self.config.rate_bounds = (lo, hi);
        self
    }

    /// Switches to fixed transmission power with the given range `Rt`.
    pub fn fixed_power(mut self, tx_range: f64) -> Self {
        self.config.fixed_power = Some(FixedPower { tx_range });
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use
    /// [`PeasConfigBuilder::try_build`] for a fallible version.
    pub fn build(self) -> PeasConfig {
        match self.try_build() {
            Ok(c) => c,
            Err(e) => panic!("{e}"),
        }
    }

    /// Finalizes the configuration, returning an error on invalid settings.
    ///
    /// # Errors
    ///
    /// See [`PeasConfig::validate`].
    pub fn try_build(self) -> Result<PeasConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_5() {
        let c = PeasConfig::paper();
        assert_eq!(c.probing_range, 3.0);
        assert_eq!(c.initial_rate, 0.1);
        assert_eq!(c.desired_rate, 0.02);
        assert_eq!(c.measure_threshold, 32);
        assert_eq!(c.probe_count, 3);
        assert_eq!(c.reply_window, SimDuration::from_millis(150));
        assert!(c.fixed_power.is_none());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_overrides_fields() {
        let c = PeasConfig::builder()
            .probing_range(6.0)
            .desired_rate(0.01)
            .measure_threshold(16)
            .probe_count(1)
            .turnoff(false)
            .build();
        assert_eq!(c.probing_range, 6.0);
        assert_eq!(c.desired_rate, 0.01);
        assert_eq!(c.measure_threshold, 16);
        assert_eq!(c.probe_count, 1);
        assert!(!c.turnoff_enabled);
    }

    #[test]
    fn control_range_depends_on_power_mode() {
        let variable = PeasConfig::paper();
        assert_eq!(variable.control_tx_range(), 3.0);
        let fixed = PeasConfig::builder().fixed_power(10.0).build();
        assert_eq!(fixed.control_tx_range(), 10.0);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(PeasConfig::builder()
            .probing_range(0.0)
            .try_build()
            .is_err());
        assert!(PeasConfig::builder()
            .initial_rate(-1.0)
            .try_build()
            .is_err());
        assert!(PeasConfig::builder().desired_rate(0.0).try_build().is_err());
        assert!(PeasConfig::builder()
            .measure_threshold(0)
            .try_build()
            .is_err());
        assert!(PeasConfig::builder().probe_count(0).try_build().is_err());
        assert!(PeasConfig::builder()
            .probe_spread(SimDuration::from_secs(1))
            .try_build()
            .is_err());
        assert!(PeasConfig::builder()
            .rate_bounds(0.0, 1.0)
            .try_build()
            .is_err());
        assert!(PeasConfig::builder()
            .rate_bounds(2.0, 1.0)
            .try_build()
            .is_err());
        // Fixed power must reach at least Rp.
        assert!(PeasConfig::builder().fixed_power(1.0).try_build().is_err());
    }

    #[test]
    fn zero_k_rejected() {
        let e = PeasConfig::builder()
            .measure_threshold(0)
            .try_build()
            .unwrap_err();
        assert!(e.to_string().contains("(k) must be at least 1"), "{e}");
        let e = PeasConfig::builder()
            .measure_window_max(SimDuration::ZERO)
            .try_build()
            .unwrap_err();
        assert!(e.to_string().contains("measure_window_max"), "{e}");
    }

    #[test]
    fn probe_count_is_bounded() {
        let at_bound = PeasConfig::builder()
            .probe_count(MAX_PROBE_COUNT)
            .try_build();
        assert!(at_bound.is_ok());
        for count in [MAX_PROBE_COUNT + 1, 4_000_000_000, u32::MAX] {
            let e = PeasConfig::builder()
                .probe_count(count)
                .try_build()
                .unwrap_err();
            assert_eq!(
                e.to_string(),
                "invalid PEAS configuration: probe_count must be at most 16"
            );
        }
    }

    #[test]
    fn desired_rate_must_be_within_bounds() {
        let err = PeasConfig::builder()
            .rate_bounds(0.05, 1.0)
            .try_build()
            .unwrap_err();
        assert!(err.to_string().contains("desired_rate"));
    }

    #[test]
    #[should_panic(expected = "invalid PEAS configuration")]
    fn build_panics_on_invalid() {
        let _ = PeasConfig::builder().probing_range(-3.0).build();
    }

    #[test]
    fn config_error_displays_reason() {
        let e = PeasConfig::builder()
            .probe_count(0)
            .try_build()
            .unwrap_err();
        assert_eq!(
            e.to_string(),
            "invalid PEAS configuration: probe_count must be at least 1"
        );
    }
}
