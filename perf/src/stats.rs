//! Order statistics for benchmark samples: median, quartiles and the
//! highest percentile a sample count supports.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (its
//! default "exclusive" method), so spreads printed here match what a
//! Python reader of `run.json` would compute from the same values.

use crate::spec::Better;

/// A sorted copy of `values`.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every metric has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartiles, as `statistics.quantiles(values, n=4)`
/// computes them. A single sample is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let v = sorted(values);
    if v.len() == 1 {
        return (v[0], v[0]);
    }
    let len = v.len();
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The median over keys of each key's best value: the lowest when lower
/// is better, the highest otherwise. Keys are a job's input, so the best
/// of its repeats is the one least disturbed by other load on the host.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn best_median(keyed: &[(u64, f64)], better: Better) -> f64 {
    let mut best: Vec<(u64, f64)> = Vec::new();
    for &(key, v) in keyed {
        match best.iter_mut().find(|(k, _)| *k == key) {
            Some((_, b)) => {
                *b = match better {
                    Better::Lower => b.min(v),
                    Better::Higher => b.max(v),
                }
            }
            None => best.push((key, v)),
        }
    }
    let values: Vec<f64> = best.into_iter().map(|(_, v)| v).collect();
    median(&values)
}

/// Percentiles tried, highest first, for the tail report.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The samples a tail percentile must leave beyond it to be reported.
const TAIL_SUPPORT: usize = 10;

/// The highest percentile with at least [`TAIL_SUPPORT`] samples beyond
/// it, on the metric's bad side: the upper tail when lower is better, the
/// lower tail when higher is better. Returns `(label, value)`, e.g.
/// `("p90", 1.25)` or `("p10", 2.1e6)`, by nearest rank; `None` below
/// twice the support.
pub fn tail(values: &[f64], better: Better) -> Option<(String, f64)> {
    let n = values.len();
    if n < 2 * TAIL_SUPPORT {
        return None;
    }
    let v = sorted(values);
    let p = TAIL_PERCENTILES
        .into_iter()
        .find(|p| n - rank(*p, n) >= TAIL_SUPPORT)?;
    let k = rank(p, n);
    Some(match better {
        Better::Lower => (label(p), v[k - 1]),
        Better::Higher => (label(100.0 - p), v[n - k]),
    })
}

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    // The epsilon keeps `p · n / 100` from rounding up past an exact rank.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

fn label(p: f64) -> String {
    if p.fract() == 0.0 {
        format!("p{p:.0}")
    } else {
        format!("p{p}")
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn best_median_takes_each_inputs_best_repeat() {
        let keyed = [(1, 5.0), (2, 9.0), (1, 3.0), (3, 7.0), (2, 8.0), (3, 6.0)];
        // Best per key when lower is better: 3, 8, 6 → median 6.
        assert_eq!(best_median(&keyed, Better::Lower), 6.0);
        // Highest per key: 5, 9, 7 → median 7.
        assert_eq!(best_median(&keyed, Better::Higher), 7.0);
        assert_eq!(best_median(&[(4, 2.5)], Better::Lower), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]: the
        // exclusive method extrapolates beyond two samples.
        assert_eq!(quartiles(&[20.0, 10.0]), (7.5, 22.5));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&v, Better::Lower), None);
        // 20 samples: only the median leaves ten beyond it.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v, Better::Lower), Some(("p50".to_string(), 10.0)));
        // 40 samples: p75 is rank 30, leaving 10.
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v, Better::Lower), Some(("p75".to_string(), 30.0)));
        // 100 samples: p90 is rank 90; on the low side it reads p10.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v, Better::Lower), Some(("p90".to_string(), 90.0)));
        assert_eq!(tail(&v, Better::Higher), Some(("p10".to_string(), 11.0)));
        // 1000 samples: p99 is rank 990.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v, Better::Lower), Some(("p99".to_string(), 990.0)));
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
