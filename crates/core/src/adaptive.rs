//! Adaptive Sleeping: the probing-rate adjustment rule (Equation 2).
//!
//! On hearing a REPLY carrying the working node's measurement λ̂ and the
//! desired aggregate rate λd, a probing node updates its own rate to
//! `λ_new = λ · λd / λ̂`. Summed over all sleeping neighbors this drives the
//! aggregate rate Λ toward λd (Section 2.2.1): Λ_new = Σλᵢ·λd/λ̂ ≈ λd.
//!
//! Two practical amendments from Section 4:
//! * a probing node with several working neighbors adjusts to the *largest*
//!   λ̂ it heard, i.e. the lowest resulting rate ("Probing nodes with more
//!   than one working neighbors");
//! * rates are clamped to configured bounds so one noisy measurement can't
//!   freeze a node (λ → 0) or turn it into a chatterbox (λ → ∞).

use crate::msg::Reply;
use crate::rate::RateMeasurement;

/// Applies Equation 2 with clamping: `λ_new = clamp(λ·λd/λ̂)`, where the
/// multiplicative change is first limited to `factor_bounds = (down, up)`.
///
/// # Panics
///
/// Panics if any argument is non-positive, the rate bounds are inverted,
/// or the factor bounds do not satisfy `0 < down <= 1 <= up`.
pub fn adjusted_rate(
    current: f64,
    desired: f64,
    measured: RateMeasurement,
    bounds: (f64, f64),
    factor_bounds: (f64, f64),
) -> f64 {
    assert!(current > 0.0 && desired > 0.0, "rates must be positive");
    let (down, up) = factor_bounds;
    assert!(
        down > 0.0 && down <= 1.0 && up >= 1.0,
        "factor bounds must satisfy 0 < down <= 1 <= up"
    );
    let (lo, hi) = bounds;
    assert!(lo > 0.0 && lo < hi, "invalid rate bounds");
    let factor = (desired / measured.per_second()).clamp(down, up);
    (current * factor).clamp(lo, hi)
}

/// The REPLYs of one probing window, folded in as they arrive: the largest
/// usable λ̂ and the λd it came with (the first of equals wins). Two
/// `f64`s, 0.0 until a REPLY carries a usable λ̂ (a measurement is always
/// above 0), so a probing node buffers no REPLYs. Whether any REPLY was
/// heard at all is the node's own flag.
///
/// A REPLY whose `desired_rate` is non-positive or non-finite has its
/// measurement ignored rather than fed into [`adjusted_rate`] (whose
/// positivity assert it would trip): a single corrupted or adversarial
/// frame must not abort the run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct ReplyFold {
    /// The largest λ̂ so far, or 0.0.
    best: f64,
    /// The λd of the REPLY that carried `best`.
    desired: f64,
}

impl ReplyFold {
    /// Folds one REPLY into the window.
    pub fn push(&mut self, reply: &Reply) {
        if !(reply.desired_rate.is_finite() && reply.desired_rate > 0.0) {
            return;
        }
        if let Some(m) = reply.measured_rate {
            if m.per_second() > self.best {
                self.best = m.per_second();
                self.desired = reply.desired_rate;
            }
        }
    }

    /// The node's new rate: Equation 2 applied to the largest λ̂ (the
    /// lowest resulting rate), or `current` when no REPLY carried a usable
    /// measurement.
    pub fn rate(&self, current: f64, bounds: (f64, f64), factor_bounds: (f64, f64)) -> f64 {
        if self.best > 0.0 {
            let measurement = RateMeasurement::new(self.best);
            adjusted_rate(current, self.desired, measurement, bounds, factor_bounds)
        } else {
            current
        }
    }
}

/// Folds the REPLYs collected during one probing window into the node's new
/// rate: picks the largest λ̂ (the lowest resulting rate) and applies
/// Equation 2; keeps `current` when no REPLY carried a usable measurement.
/// A REPLY with a non-positive or non-finite `desired_rate` is ignored.
/// This is the fold a probing node applies REPLY by REPLY as they arrive.
pub fn rate_from_replies<'a>(
    current: f64,
    bounds: (f64, f64),
    factor_bounds: (f64, f64),
    replies: impl IntoIterator<Item = &'a Reply>,
) -> f64 {
    let mut fold = ReplyFold::default();
    for reply in replies {
        fold.push(reply);
    }
    fold.rate(current, bounds, factor_bounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use peas_des::time::SimDuration;

    const BOUNDS: (f64, f64) = (1e-5, 10.0);
    const CAP: (f64, f64) = (1e-9, 1e9); // effectively uncapped for the algebraic tests

    fn reply(measured: Option<f64>, desired: f64) -> Reply {
        Reply {
            measured_rate: measured.map(RateMeasurement::new),
            desired_rate: desired,
            working_time: SimDuration::ZERO,
        }
    }

    #[test]
    fn equation_2_basic() {
        // λ = 0.1, λd = 0.02, λ̂ = 0.05 -> λ_new = 0.1 * 0.02 / 0.05 = 0.04.
        let m = RateMeasurement::new(0.05);
        let next = adjusted_rate(0.1, 0.02, m, BOUNDS, CAP);
        assert!((next - 0.04).abs() < 1e-12);
    }

    #[test]
    fn over_target_measurement_lowers_rate() {
        let m = RateMeasurement::new(0.08); // aggregate 4x the target
        assert!(adjusted_rate(0.1, 0.02, m, BOUNDS, CAP) < 0.1);
    }

    #[test]
    fn under_target_measurement_raises_rate() {
        let m = RateMeasurement::new(0.005); // aggregate below target
        assert!(adjusted_rate(0.1, 0.02, m, BOUNDS, CAP) > 0.1);
    }

    #[test]
    fn aggregate_converges_to_desired() {
        // n sleeping neighbors with arbitrary rates; after one exact
        // feedback round the aggregate equals λd (the Section 2.2.1
        // derivation).
        let rates = [0.08, 0.01, 0.2, 0.003, 0.05];
        let aggregate: f64 = rates.iter().sum();
        let m = RateMeasurement::new(aggregate);
        let new_aggregate: f64 = rates
            .iter()
            .map(|&l| adjusted_rate(l, 0.02, m, BOUNDS, CAP))
            .sum();
        assert!((new_aggregate - 0.02).abs() < 1e-12);
    }

    #[test]
    fn clamping_bounds_the_result() {
        let tiny = adjusted_rate(1e-4, 0.02, RateMeasurement::new(1000.0), BOUNDS, CAP);
        assert_eq!(tiny, BOUNDS.0);
        let huge = adjusted_rate(5.0, 0.02, RateMeasurement::new(1e-6), BOUNDS, CAP);
        assert_eq!(huge, BOUNDS.1);
    }

    #[test]
    fn multiple_replies_use_largest_measurement() {
        // λ̂ = 0.1 wins over 0.04: the lowest resulting rate (Section 4).
        let replies = [reply(Some(0.04), 0.02), reply(Some(0.1), 0.02)];
        let next = rate_from_replies(0.1, BOUNDS, CAP, replies.iter());
        assert!((next - 0.1 * 0.02 / 0.1).abs() < 1e-12);
    }

    #[test]
    fn replies_without_measurement_leave_rate_unchanged() {
        let replies = [reply(None, 0.02), reply(None, 0.02)];
        assert_eq!(rate_from_replies(0.07, BOUNDS, CAP, replies.iter()), 0.07);
        assert_eq!(rate_from_replies(0.07, BOUNDS, CAP, [].iter()), 0.07);
    }

    #[test]
    fn mixed_replies_ignore_unmeasured_ones() {
        let replies = [reply(None, 0.02), reply(Some(0.05), 0.02)];
        let next = rate_from_replies(0.1, BOUNDS, CAP, replies.iter());
        assert!((next - 0.04).abs() < 1e-12);
    }

    #[test]
    fn iterated_feedback_converges_from_above_and_below() {
        // Simulate repeated exact feedback rounds: n nodes, aggregate should
        // approach λd regardless of the starting point.
        for start in [1.0, 0.001] {
            let mut rates = vec![start; 10];
            for _ in 0..5 {
                let aggregate: f64 = rates.iter().sum();
                let m = RateMeasurement::new(aggregate);
                for r in &mut rates {
                    *r = adjusted_rate(*r, 0.02, m, BOUNDS, CAP);
                }
            }
            let aggregate: f64 = rates.iter().sum();
            assert!(
                (aggregate - 0.02).abs() < 1e-9,
                "aggregate {aggregate} from start {start}"
            );
        }
    }

    #[test]
    fn factor_bounds_limit_single_adjustment() {
        // λ̂ 100x over target would slash λ 100x; the down bound of 0.5
        // limits a single step to halving.
        let m = RateMeasurement::new(2.0);
        let next = adjusted_rate(0.1, 0.02, m, BOUNDS, (0.5, 8.0));
        assert!((next - 0.05).abs() < 1e-12);
        // Recovery may be faster: up to the 8x up bound.
        let m = RateMeasurement::new(0.0001);
        let next = adjusted_rate(0.1, 0.02, m, BOUNDS, (0.5, 8.0));
        assert!((next - 0.8).abs() < 1e-12);
    }

    #[test]
    fn fold_keeps_the_first_of_equal_measurements() {
        // Equal λ̂ with different λd: the first REPLY's λd stays.
        let replies = [reply(Some(0.05), 0.02), reply(Some(0.05), 0.04)];
        let next = rate_from_replies(0.1, BOUNDS, CAP, replies.iter());
        assert!((next - 0.1 * 0.02 / 0.05).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "rates must be positive")]
    fn rejects_nonpositive_current() {
        let _ = adjusted_rate(0.0, 0.02, RateMeasurement::new(0.1), BOUNDS, CAP);
    }

    #[test]
    fn invalid_desired_rates_are_ignored_not_fatal() {
        // Regression: a REPLY with a corrupted λd used to reach
        // `adjusted_rate` and trip its positivity assert, aborting the run.
        for bad in [0.0, -0.02, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let replies = [reply(Some(0.05), bad)];
            assert_eq!(rate_from_replies(0.1, BOUNDS, CAP, replies.iter()), 0.1);
        }
        // A valid REPLY alongside corrupted ones still adjusts the rate —
        // even when a corrupted frame carries the larger measurement.
        let replies = [
            reply(Some(0.9), f64::NAN),
            reply(Some(0.05), 0.02),
            reply(Some(0.8), -1.0),
        ];
        let next = rate_from_replies(0.1, BOUNDS, CAP, replies.iter());
        assert!((next - 0.04).abs() < 1e-12);
    }
}
