//! Quantiles via the type-7 (linear interpolation) estimator — the same
//! default as NumPy/pandas, which the paper's original Python analysis used.

/// Sort a copy of the data, dropping non-finite values.
pub fn sorted_finite(xs: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
    v
}

/// Type-7 quantile of **already sorted** data, `q ∈ [0, 1]`.
///
/// Returns `None` for empty input or out-of-range `q`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let n = sorted.len();
    if n == 1 {
        return Some(sorted[0]);
    }
    let (lo, hi, frac) = type7_position(n as u64, q);
    Some(sorted[lo as usize] + (sorted[hi as usize] - sorted[lo as usize]) * frac)
}

/// Where the type-7 `q`-quantile of `n ≥ 2` sorted values sits: the
/// 0-based ranks `lo ≤ hi` it interpolates between and the weight `frac`
/// of `hi`, so the quantile is `s[lo] + (s[hi] − s[lo])·frac`. Shared with
/// the Theil–Sen slope selection, which finds `s[lo]` and `s[hi]` without
/// sorting and must interpolate with the same float operations.
pub(crate) fn type7_position(n: u64, q: f64) -> (u64, u64, f64) {
    let h = q * (n - 1) as f64;
    let lo = h.floor() as u64;
    (lo, h.ceil() as u64, h - lo as f64)
}

/// Type-7 quantile of unsorted data (copies and sorts internally).
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    quantile_sorted(&sorted_finite(xs), q)
}

/// Median (50th percentile).
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// Interquartile range Q3 − Q1.
pub fn iqr(xs: &[f64]) -> Option<f64> {
    let sorted = sorted_finite(xs);
    Some(quantile_sorted(&sorted, 0.75)? - quantile_sorted(&sorted, 0.25)?)
}

/// Several quantiles of the same data in one sort.
pub fn quantiles(xs: &[f64], qs: &[f64]) -> Vec<Option<f64>> {
    let sorted = sorted_finite(xs);
    qs.iter().map(|&q| quantile_sorted(&sorted, q)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn out_of_range_q() {
        assert_eq!(quantile(&[1.0], -0.1), None);
        assert_eq!(quantile(&[1.0], 1.1), None);
    }

    #[test]
    fn single_element() {
        assert_eq!(quantile(&[7.0], 0.0), Some(7.0));
        assert_eq!(quantile(&[7.0], 0.5), Some(7.0));
        assert_eq!(quantile(&[7.0], 1.0), Some(7.0));
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn type7_interpolation_matches_numpy() {
        // numpy.percentile([1,2,3,4], 25) == 1.75 with default interpolation.
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((quantile(&xs, 0.25).unwrap() - 1.75).abs() < 1e-12);
        assert!((quantile(&xs, 0.75).unwrap() - 3.25).abs() < 1e-12);
    }

    #[test]
    fn extremes_are_min_max() {
        let xs = [5.0, -2.0, 9.0, 0.0];
        assert_eq!(quantile(&xs, 0.0), Some(-2.0));
        assert_eq!(quantile(&xs, 1.0), Some(9.0));
    }

    #[test]
    fn nan_filtered() {
        let xs = [1.0, f64::NAN, 3.0];
        assert_eq!(median(&xs), Some(2.0));
    }

    #[test]
    fn iqr_known() {
        let xs: Vec<f64> = (1..=8).map(|i| i as f64).collect();
        // Q1 = 2.75, Q3 = 6.25 → IQR = 3.5 (type-7).
        assert!((iqr(&xs).unwrap() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_monotone_in_q() {
        let xs: Vec<f64> = (0..100).map(|i| ((i * 37) % 100) as f64).collect();
        let mut last = f64::NEG_INFINITY;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let v = quantile(&xs, q).unwrap();
            assert!(v >= last, "quantile must be monotone in q");
            last = v;
        }
    }

    #[test]
    fn batch_quantiles() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let qs = quantiles(&xs, &[0.0, 0.5, 1.0]);
        assert_eq!(qs, vec![Some(1.0), Some(2.5), Some(4.0)]);
    }
}
