//! Order statistics with the sample-size discipline every reported number
//! follows: a percentile is only reported where the sample supports it.

/// Minimum number of samples that must lie beyond a reported tail
/// percentile.
pub const TAIL_BEYOND: usize = 10;

/// A percentile read off a sample, with the sample size it came from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Percentile rank in `[0, 100]`.
    pub pct: f64,
    /// The sample value at that rank.
    pub value: f64,
    /// Sample size.
    pub n: usize,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); `NaN` when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`p` in `[0, 100]`); `NaN` when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    // The epsilon keeps `(n - k) / n * n` from rounding up a whole rank.
    let rank = ((p / 100.0) * v.len() as f64 - 1e-9).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `p` if the sample holds at least [`TAIL_BEYOND`] values beyond it,
/// otherwise the highest percentile that does — never below the median.
pub fn supported_percentile(n: usize, p: f64) -> f64 {
    if n <= TAIL_BEYOND {
        return 50.0;
    }
    let highest = 100.0 * (n - TAIL_BEYOND) as f64 / n as f64;
    p.min(highest).max(50.0)
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it, capped at `cap` (e.g. 99). With fewer than `2 * TAIL_BEYOND`
/// samples that is the median: no tail above what the sample supports.
pub fn tail(values: &[f64], cap: f64) -> Tail {
    let n = values.len();
    let pct = supported_percentile(n, cap);
    let value = if pct == 50.0 {
        median(values)
    } else {
        percentile(values, pct)
    };
    Tail { pct, value, n }
}

/// [`tail`] per window of `values` (in measurement order), cut into as
/// many contiguous windows of at least `min_per_window` as fit, up to
/// `max_windows`; returns the median window value with the lowest
/// percentile and window size among them. A host stall then lands in one
/// window instead of setting the run's tail.
pub fn windowed_tail(values: &[f64], min_per_window: usize, max_windows: usize, cap: f64) -> Tail {
    let k = (values.len() / min_per_window.max(1)).clamp(1, max_windows.max(1));
    let tails: Vec<Tail> = (0..k)
        .map(|i| {
            tail(
                &values[i * values.len() / k..(i + 1) * values.len() / k],
                cap,
            )
        })
        .collect();
    Tail {
        pct: tails.iter().map(|t| t.pct).fold(100.0, f64::min),
        value: median(&tails.iter().map(|t| t.value).collect::<Vec<_>>()),
        n: tails.iter().map(|t| t.n).min().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples support p99 exactly: 10 lie beyond it.
        let t = tail(&ramp(1000), 99.0);
        assert_eq!((t.pct, t.value, t.n), (99.0, 990.0, 1000));
        // 200 samples support only p95; p99 would leave 2 beyond.
        let t = tail(&ramp(200), 99.0);
        assert_eq!((t.pct, t.value, t.n), (95.0, 190.0, 200));
        assert_eq!(
            ramp(200).iter().filter(|&&x| x > t.value).count(),
            TAIL_BEYOND
        );
    }

    #[test]
    fn tail_never_reports_above_the_sample() {
        for n in 1..400 {
            let values = ramp(n);
            let t = tail(&values, 99.0);
            assert_eq!(t.n, n);
            assert!(t.pct >= 50.0 && t.pct <= 99.0);
            if t.pct > 50.0 {
                let beyond = values.iter().filter(|&&x| x > t.value).count();
                assert!(beyond >= TAIL_BEYOND, "n={n} pct={} beyond={beyond}", t.pct);
            }
        }
    }

    #[test]
    fn small_samples_fall_back_to_the_median() {
        let t = tail(&ramp(15), 99.0);
        assert_eq!((t.pct, t.value), (50.0, 8.0));
        let t = tail(&[3.0, 1.0], 99.0);
        assert_eq!((t.pct, t.value, t.n), (50.0, 2.0, 2));
    }

    #[test]
    fn windowed_tail_ignores_one_stalled_window() {
        let mut values: Vec<f64> = (0..180).map(|i| (i % 60) as f64).collect();
        // A stall inflates the last window only.
        values[120..].iter_mut().for_each(|v| *v += 1000.0);
        let t = windowed_tail(&values, 60, 3, 99.0);
        assert_eq!((t.n, t.pct), (60, 100.0 * 50.0 / 60.0));
        assert!(t.value < 60.0, "{t:?}");
        // Too few values for two windows: one window, the plain tail.
        assert_eq!(
            windowed_tail(&values[..100], 60, 3, 99.0),
            tail(&values[..100], 99.0)
        );
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&ramp(4)), 2.5);
        assert_eq!(percentile(&ramp(100), 50.0), 50.0);
        assert_eq!(percentile(&ramp(100), 100.0), 100.0);
        assert!(median(&[]).is_nan());
    }
}
