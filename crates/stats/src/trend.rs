//! Robust trend statistics: the Theil–Sen slope estimator and the
//! Mann–Kendall trend test.
//!
//! The paper's §III/§IV claims are of the form "X increases over the
//! years". OLS answers that, but is sensitive to the heavy-tailed spread
//! the dataset exhibits in recent years; Theil–Sen and Mann–Kendall give
//! outlier-robust confirmation, and the ablation benches compare the two.
//!
//! There is one Theil–Sen algorithm for every input size. It returns the
//! same bits as sorting all `n(n−1)/2` pairwise slopes and taking their
//! type-7 median, but stores none of them beyond a fixed window: the points
//! are sorted and cut into runs of equal x (Figure 6's month grid has ~200
//! at any corpus scale), each pass counts the slopes against two probes
//! with a two-pointer merge per pair of runs, and the slopes between the
//! probes are kept and selected in. Random pairs place the first window;
//! at ×1 (676 points, ~227k slopes) one pass finishes. Memory is O(n) plus
//! a 256 KiB window.

use crate::bootstrap::SplitMix64;
use crate::quantile::{median, type7_position};

/// Theil–Sen estimate: the median of all pairwise slopes, with the
/// intercept chosen as `median(y) − slope·median(x)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TheilSen {
    /// Median pairwise slope.
    pub slope: f64,
    /// Intercept through the medians.
    pub intercept: f64,
    /// Number of points used.
    pub n: usize,
}

impl TheilSen {
    /// Evaluate the robust line at `x`.
    #[inline]
    pub fn predict(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }
}

/// Fit a Theil–Sen line. Pairs with non-finite coordinates are dropped;
/// returns `None` when no pair of points has a finite slope (fewer than
/// two distinct x, say).
///
/// The slope is, bit for bit, `median` of every pairwise slope
/// `(y_j − y_i)/(x_j − x_i)` over pairs `i < j` with `x_i ≠ x_j` —
/// slopes that overflow to ±∞ are dropped, as `median` drops them — but
/// the `n(n−1)/2` slopes are never stored: the two middle ranks are
/// selected in O(n) memory plus a window of at most 32,768 slopes, for any
/// `n`. Time is O(r·n) per pass for `r` distinct x values, with one pass
/// at ×1 and about four at ×100.
pub fn theil_sen(xs: &[f64], ys: &[f64]) -> Option<TheilSen> {
    let pts: Vec<(f64, f64)> = xs
        .iter()
        .zip(ys)
        .filter(|(x, y)| x.is_finite() && y.is_finite())
        .map(|(&x, &y)| (x, y))
        .collect();
    if pts.len() < 2 {
        return None;
    }
    let slope = median_slope(&pts)?;
    let mx = median(&pts.iter().map(|p| p.0).collect::<Vec<_>>())?;
    let my = median(&pts.iter().map(|p| p.1).collect::<Vec<_>>())?;
    Some(TheilSen {
        slope,
        intercept: my - slope * mx,
        n: pts.len(),
    })
}

/// Most slopes one selection pass keeps (256 KiB): a window of the slope
/// order that fits is collected whole and selected in; a larger one is
/// thinned to a systematic sample that places the next, narrower window.
const WINDOW_CAP: usize = 1 << 15;

/// Random pairs drawn to place a window when there is no sample to hand.
const SAMPLE: usize = 1 << 13;

/// Fewer sampled slopes than this and the next pass bisects instead.
const MIN_SAMPLE: usize = 64;

/// Median of every finite pairwise slope, equal in bits to
/// `median(&slopes)` over the naive enumeration.
///
/// Slopes are compared by value only, so they are computed over the
/// (x, y)-sorted points rather than in input order: reversing a pair
/// negates both differences exactly, which can flip only the sign of a
/// zero slope. Type-7 interpolation maps ±0 to the same result, so the
/// order only matters when a single slope exists — and then that slope is
/// recomputed in input order.
fn median_slope(pts: &[(f64, f64)]) -> Option<f64> {
    let runs = XRuns::new(pts);
    match runs.slope_count() {
        0 => None,
        1 => pts.iter().enumerate().find_map(|(i, p)| {
            pts[i + 1..].iter().find_map(|q| {
                let dx = q.0 - p.0;
                let s = (q.1 - p.1) / dx;
                (dx != 0.0 && s.is_finite()).then_some(s)
            })
        }),
        total => {
            let (lo, hi, frac) = type7_position(total, 0.5);
            let [a, b] = select_slopes(&runs, total, [lo, hi], WINDOW_CAP);
            Some(a + (b - a) * frac)
        }
    }
}

/// Points sorted by (x, y) and cut into runs of equal x. Every slope
/// between two runs divides by the same `Δx`, so within a pair of runs the
/// computed slope `(y_q − y_p)/Δx` is monotone — non-decreasing in `y_q`,
/// non-increasing in `y_p` — because IEEE subtraction and division round
/// monotonically. Counting a pair of runs against a threshold is then a
/// two-pointer merge, O(|run a| + |run b|), whatever the number of slopes.
struct XRuns {
    pts: Vec<(f64, f64)>,
    /// Start of each run in `pts`, then `pts.len()`.
    starts: Vec<usize>,
    /// Every cross-run slope is finite, proven once from the extremes.
    all_finite: bool,
}

impl XRuns {
    fn new(pts: &[(f64, f64)]) -> Self {
        let mut pts = pts.to_vec();
        pts.sort_by(|a, b| a.partial_cmp(b).expect("finite points compare"));
        let mut starts = vec![0];
        starts.extend((1..pts.len()).filter(|&i| pts[i].0 != pts[i - 1].0));
        starts.push(pts.len());
        // |y_q − y_p| rounds to at most the y span and every Δx to at least
        // the smallest gap between adjacent runs, so if their quotient is
        // finite (and no Δx overflows) no slope can overflow.
        let (y_min, y_max) = pts
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), p| {
                (lo.min(p.1), hi.max(p.1))
            });
        let min_gap = starts[1..starts.len() - 1]
            .iter()
            .map(|&s| pts[s].0 - pts[s - 1].0)
            .fold(f64::INFINITY, f64::min);
        let x_span = pts.last().map_or(0.0, |last| last.0 - pts[0].0);
        let all_finite = x_span.is_finite() && ((y_max - y_min) / min_gap).is_finite();
        XRuns {
            pts,
            starts,
            all_finite,
        }
    }

    fn run(&self, r: usize) -> &[(f64, f64)] {
        &self.pts[self.starts[r]..self.starts[r + 1]]
    }

    /// How many finite pairwise slopes there are.
    fn slope_count(&self) -> u64 {
        if self.all_finite {
            let n = self.pts.len() as u64;
            let same_x: u64 = self
                .starts
                .windows(2)
                .map(|w| ((w[1] - w[0]) as u64).pow(2))
                .sum();
            (n * n - same_x) / 2
        } else {
            self.tally(
                f64::MAX,
                f64::MAX,
                false,
                &mut Keep::new(&mut Vec::new(), 0),
            )
            .le
        }
    }

    /// One pass over every finite slope `s`, counting `s < t1` and
    /// `s ≤ t2` (`t1 ≤ t2`), offering the slopes inside `[t1, t2]` to
    /// `keep` and, with `edges`, noting the nearest slopes outside it.
    fn tally(&self, t1: f64, t2: f64, edges: bool, keep: &mut Keep) -> Tally {
        let (mut lt, mut le) = (0, 0);
        let (mut max_lt, mut min_gt) = (f64::NEG_INFINITY, f64::INFINITY);
        let m = self.starts.len() - 1;
        for a in 0..m {
            let ra = self.run(a);
            for b in a + 1..m {
                let rb = self.run(b);
                let dx = rb[0].0 - ra[0].0;
                let slope = |p: f64, q: f64| (q - p) / dx;
                let (top, bottom) = (rb.len() - 1, ra.len() - 1);
                if self.all_finite
                    || (slope(ra[bottom].1, rb[0].1).is_finite()
                        && slope(ra[0].1, rb[top].1).is_finite())
                {
                    // y_p ascends, so each p's slopes fall and both
                    // boundaries only move right.
                    let (mut i1, mut i2) = (0, 0);
                    for &(_, yp) in ra {
                        let s = |q: usize| slope(yp, rb[q].1);
                        while i1 < rb.len() && s(i1) < t1 {
                            i1 += 1;
                        }
                        i2 = i2.max(i1);
                        while i2 < rb.len() && s(i2) <= t2 {
                            i2 += 1;
                        }
                        lt += i1 as u64;
                        le += i2 as u64;
                        if edges && i1 > 0 {
                            max_lt = max_lt.max(s(i1 - 1));
                        }
                        if edges && i2 < rb.len() {
                            min_gt = min_gt.min(s(i2));
                        }
                        keep.offer(i2 - i1, |k| s(i1 + k));
                    }
                } else {
                    // Some slope here overflows: skip those one by one.
                    for &(_, yp) in ra {
                        for &(_, yq) in rb {
                            let s = slope(yp, yq);
                            if !s.is_finite() {
                                continue;
                            }
                            if s < t1 {
                                lt += 1;
                                max_lt = max_lt.max(s);
                            }
                            if s > t2 {
                                min_gt = min_gt.min(s);
                            } else {
                                le += 1;
                                if s >= t1 {
                                    keep.offer(1, |_| s);
                                }
                            }
                        }
                    }
                }
            }
        }
        Tally {
            lt,
            le,
            edges: edges.then_some((max_lt, min_gt)),
        }
    }

    /// Refill `buf` with up to `want` finite slopes inside `win`, drawn
    /// uniformly by rejection from random point pairs.
    fn sample(&self, win: &Window, buf: &mut Vec<f64>, want: usize, rng: &mut SplitMix64) {
        buf.clear();
        let n = self.pts.len();
        for _ in 0..16 * want {
            if buf.len() == want {
                break;
            }
            let (i, j) = (rng.index(n), rng.index(n));
            let (p, q) = (self.pts[i.min(j)], self.pts[i.max(j)]);
            let s = (q.1 - p.1) / (q.0 - p.0);
            if p.0 != q.0 && s.is_finite() && win.lo <= s && s <= win.hi {
                buf.push(s);
            }
        }
    }
}

/// What one [`XRuns::tally`] pass saw of the slopes.
struct Tally {
    /// Slopes `< t1`.
    lt: u64,
    /// Slopes `≤ t2`.
    le: u64,
    /// If asked for: the largest slope `< t1` (rank `lt − 1`) and the
    /// smallest `> t2` (rank `le`).
    edges: Option<(f64, f64)>,
}

/// The stretch `[lo, hi]` of slope values known to hold every rank still
/// sought: `below` slopes are `< lo` and `upto` are `≤ hi`.
struct Window {
    lo: f64,
    hi: f64,
    below: u64,
    upto: u64,
}

/// Collects the slopes a pass offers into a buffer of fixed capacity:
/// all of them while they fit, and from then on a systematic sample —
/// every 2nd, 4th, … in offer order, halving the buffer each time it fills.
struct Keep<'a> {
    buf: &'a mut Vec<f64>,
    cap: usize,
    stride: u64,
    seen: u64,
}

impl<'a> Keep<'a> {
    fn new(buf: &'a mut Vec<f64>, cap: usize) -> Self {
        buf.clear();
        Keep {
            buf,
            cap,
            stride: 1,
            seen: 0,
        }
    }

    /// Offer `len` slopes; `slope(k)` computes the `k`-th. Only the ones
    /// that land on the sampling stride are computed.
    fn offer(&mut self, len: usize, slope: impl Fn(usize) -> f64) {
        let end = self.seen + len as u64;
        if self.cap == 0 {
            self.seen = end;
            return;
        }
        let mut k = self.seen.next_multiple_of(self.stride);
        while k < end {
            if self.buf.len() == self.cap {
                let kept = self.buf.len().div_ceil(2);
                for i in 0..kept {
                    self.buf[i] = self.buf[2 * i];
                }
                self.buf.truncate(kept);
                self.stride *= 2;
                k = k.next_multiple_of(self.stride);
                continue;
            }
            self.buf.push(slope((k - self.seen) as usize));
            k += self.stride;
        }
        self.seen = end;
    }

    /// The buffer holds every offered slope, not a sample.
    fn complete(&self) -> bool {
        self.stride == 1
    }
}

/// The slopes at 0-based ranks `ranks` (adjacent or equal) of the sorted
/// finite slopes, `total` of them, without sorting or storing them all.
///
/// Each pass tallies the slopes against two probes `t1 ≤ t2` and keeps
/// the ones in `[t1, t2]`. A rank `r` is then resolved exactly when
/// - `r = lt − 1` or `r = le` on a bisection pass (`t1 = t2`), which notes
///   the nearest slope on each side;
/// - `lt ≤ r < le` and either `t1 = t2` or every slope in between was
///   kept: a `select_nth` over the kept window.
///
/// Otherwise the window narrows to the probes (or past them), and the next
/// probes come from a sample of the new window, placed a few standard
/// errors wide around the sought ranks: the kept systematic sample when
/// the window is exactly `[t1, t2]`, fresh random pairs when not. At ×1
/// (~227k slopes) one pass resolves both ranks. A window that fits in
/// `cap` slopes is collected whole; a pass that fails to narrow the window
/// is followed by a bisection of the `f64` order, which always narrows it,
/// so the loop ends.
fn select_slopes(runs: &XRuns, total: u64, ranks: [u64; 2], cap: usize) -> [f64; 2] {
    assert!(cap > 0, "selection needs room for one slope");
    let mut found = [None; 2];
    let mut win = Window {
        lo: -f64::MAX,
        hi: f64::MAX,
        below: 0,
        upto: total,
    };
    let mut rng = SplitMix64::new(0x7e11_5e17);
    let want = SAMPLE.min(cap);
    let mut buf = Vec::with_capacity(cap.min(total as usize));
    if total > cap as u64 {
        runs.sample(&win, &mut buf, want, &mut rng);
    }
    loop {
        let (ra, rb) = open_span(&ranks, &found);
        let inside = win.upto - win.below;
        let (t1, t2) = if inside <= cap as u64 {
            (win.lo, win.hi)
        } else if buf.len() >= MIN_SAMPLE {
            buf.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite slopes compare"));
            let s = buf.len() as f64;
            let margin = 2.0 * s.sqrt() + 1.0;
            let pos = |r: u64| (r - win.below) as f64 / inside as f64 * s;
            let (p1, p2) = (pos(ra) - margin, pos(rb + 1) + margin);
            (
                if p1 < 0.0 { win.lo } else { buf[p1 as usize] },
                if p2 >= s { win.hi } else { buf[p2 as usize] },
            )
        } else {
            let (a, b) = (slope_key(win.lo), slope_key(win.hi));
            let mid = key_slope(a + (b - a) / 2);
            (mid, mid)
        };
        let mut keep = Keep::new(&mut buf, cap);
        // Only a bisection asks for the edges: its probe may land between
        // the two middle slopes, and the edges then resolve both at once.
        let t = runs.tally(t1, t2, t1 == t2, &mut keep);
        let complete = keep.complete();
        for (&r, f) in ranks.iter().zip(found.iter_mut()) {
            if f.is_some() {
                continue;
            }
            let between = (t.lt..t.le).contains(&r);
            *f = match t.edges {
                Some((below, _)) if r + 1 == t.lt => Some(below),
                Some((_, above)) if r == t.le => Some(above),
                _ if between && t1 == t2 => Some(t1),
                _ if between && complete => {
                    let k = (r - t.lt) as usize;
                    Some(
                        *buf.select_nth_unstable_by(k, |a, b| a.partial_cmp(b).expect("finite"))
                            .1,
                    )
                }
                _ => None,
            };
        }
        if let [Some(a), Some(b)] = found {
            return [a, b];
        }
        let (ra, rb) = open_span(&ranks, &found);
        let mut kept_is_window = false;
        if rb < t.lt {
            win.hi = -next_up(-t1);
            win.upto = t.lt;
        } else if ra >= t.le {
            win.lo = next_up(t2);
            win.below = t.le;
        } else {
            if t.lt <= ra {
                win.lo = t1;
                win.below = t.lt;
            }
            if rb < t.le {
                win.hi = t2;
                win.upto = t.le;
            }
            kept_is_window = t.lt <= ra && rb < t.le;
        }
        if win.upto - win.below == inside {
            buf.clear();
        } else if !kept_is_window {
            runs.sample(&win, &mut buf, want, &mut rng);
        }
    }
}

/// The lowest and highest rank not yet found.
fn open_span(ranks: &[u64; 2], found: &[Option<f64>; 2]) -> (u64, u64) {
    let mut open = ranks
        .iter()
        .zip(found)
        .filter(|(_, f)| f.is_none())
        .map(|(r, _)| *r);
    let first = open.next().expect("a rank is open");
    (first, open.next().unwrap_or(first))
}

/// The least `f64` above `x` (both zeros count as one value).
fn next_up(x: f64) -> f64 {
    key_slope(slope_key(x + 0.0) + 1)
}

/// Map a finite `f64` onto a `u64` whose unsigned order equals the numeric
/// order (the usual sign-flip trick), and back, so a bisection can halve
/// any interval of floats.
fn slope_key(f: f64) -> u64 {
    let b = f.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

fn key_slope(k: u64) -> f64 {
    if k >> 63 == 1 {
        f64::from_bits(k & !(1 << 63))
    } else {
        f64::from_bits(!k)
    }
}

/// Result of a Mann–Kendall trend test.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MannKendall {
    /// The S statistic (Σ sign of pairwise differences along time order).
    pub s: i64,
    /// Normal-approximation z score (tie-corrected variance).
    pub z: f64,
    /// Two-sided p-value from the normal approximation.
    pub p_value: f64,
    /// Number of observations.
    pub n: usize,
}

impl MannKendall {
    /// Trend direction at the given significance level (e.g. 0.05):
    /// `Some(true)` = increasing, `Some(false)` = decreasing, `None` = no
    /// significant trend.
    pub fn direction(&self, alpha: f64) -> Option<bool> {
        if self.p_value <= alpha {
            Some(self.s > 0)
        } else {
            None
        }
    }
}

/// Standard normal survival function via the complementary error function
/// (Abramowitz–Stegun 7.1.26 approximation, |error| < 1.5e-7).
fn normal_sf(z: f64) -> f64 {
    let x = z / std::f64::consts::SQRT_2;
    let t = 1.0 / (1.0 + 0.3275911 * x.abs());
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let erfc = poly * (-x * x).exp();
    let erfc = if x < 0.0 { 2.0 - erfc } else { erfc };
    0.5 * erfc
}

/// Mann–Kendall test on a time-ordered series (`ys` in observation order).
/// Non-finite values are dropped (order preserved). Returns `None` for
/// fewer than 3 observations.
pub fn mann_kendall(ys: &[f64]) -> Option<MannKendall> {
    let v: Vec<f64> = ys.iter().copied().filter(|y| y.is_finite()).collect();
    let n = v.len();
    if n < 3 {
        return None;
    }
    let mut s = 0i64;
    for i in 0..n {
        for j in (i + 1)..n {
            s += match v[j].partial_cmp(&v[i]).expect("finite") {
                std::cmp::Ordering::Greater => 1,
                std::cmp::Ordering::Less => -1,
                std::cmp::Ordering::Equal => 0,
            };
        }
    }
    // Tie-corrected variance.
    let mut sorted = v.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let mut tie_term = 0f64;
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && sorted[j + 1] == sorted[i] {
            j += 1;
        }
        let t = (j - i + 1) as f64;
        if t > 1.0 {
            tie_term += t * (t - 1.0) * (2.0 * t + 5.0);
        }
        i = j + 1;
    }
    let nf = n as f64;
    let var = (nf * (nf - 1.0) * (2.0 * nf + 5.0) - tie_term) / 18.0;
    let z = if var <= 0.0 {
        0.0
    } else if s > 0 {
        (s as f64 - 1.0) / var.sqrt()
    } else if s < 0 {
        (s as f64 + 1.0) / var.sqrt()
    } else {
        0.0
    };
    let p_value = (2.0 * normal_sf(z.abs())).min(1.0);
    Some(MannKendall {
        s,
        z,
        p_value,
        n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theil_sen_recovers_exact_line() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 1.5 * x - 4.0).collect();
        let fit = theil_sen(&xs, &ys).unwrap();
        assert!((fit.slope - 1.5).abs() < 1e-12);
        assert!((fit.intercept + 4.0).abs() < 1e-9);
        assert!((fit.predict(10.0) - 11.0).abs() < 1e-9);
    }

    #[test]
    fn theil_sen_shrugs_off_outliers() {
        let xs: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let mut ys: Vec<f64> = xs.iter().map(|x| 2.0 * x).collect();
        // Corrupt a quarter of the points massively.
        for i in (0..30).step_by(4) {
            ys[i] += 1e5;
        }
        let robust = theil_sen(&xs, &ys).unwrap();
        let ols = crate::linreg::fit(&xs, &ys).unwrap();
        assert!((robust.slope - 2.0).abs() < 0.3, "robust {}", robust.slope);
        assert!(
            (ols.slope - 2.0).abs() > 10.0,
            "OLS should be wrecked: {}",
            ols.slope
        );
    }

    #[test]
    fn theil_sen_degenerate_inputs() {
        assert!(theil_sen(&[1.0], &[1.0]).is_none());
        assert!(theil_sen(&[], &[]).is_none());
        // All same x → no defined slope.
        assert!(theil_sen(&[2.0, 2.0], &[1.0, 5.0]).is_none());
    }

    /// The textbook estimator the selection reproduces bit for bit: every
    /// defined slope in input pair order, then `median`.
    fn naive_median_slope(pts: &[(f64, f64)]) -> Option<f64> {
        let mut slopes = Vec::with_capacity(pts.len() * pts.len().saturating_sub(1) / 2);
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                let dx = pts[j].0 - pts[i].0;
                if dx != 0.0 {
                    slopes.push((pts[j].1 - pts[i].1) / dx);
                }
            }
        }
        median(&slopes)
    }

    /// `median_slope` equals the naive median in bits; on small inputs so
    /// does `select_slopes` at window caps small enough to force the
    /// thinned-sample, resampling and bisection paths.
    fn assert_bit_identical(pts: &[(f64, f64)], what: &str) {
        let naive = naive_median_slope(pts).map(f64::to_bits);
        assert_eq!(median_slope(pts).map(f64::to_bits), naive, "{what}");
        let runs = XRuns::new(pts);
        let total = runs.slope_count();
        if total < 2 || pts.len() > 300 {
            return;
        }
        let (lo, hi, frac) = type7_position(total, 0.5);
        for cap in [1, 2, 7, 64, 1000] {
            let [a, b] = select_slopes(&runs, total, [lo, hi], cap);
            assert_eq!(
                Some((a + (b - a) * frac).to_bits()),
                naive,
                "{what}, cap {cap}"
            );
        }
    }

    /// Deterministic LCG points: no RNG dependency, reproducible shapes.
    fn lcg_points(n: usize, seed: u64, x_levels: u64, dup_every: usize) -> Vec<(f64, f64)> {
        let mut state = seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut pts = Vec::with_capacity(n);
        for i in 0..n {
            if dup_every > 0 && i % dup_every == dup_every - 1 {
                if let Some(&prev) = pts.last() {
                    pts.push(prev);
                    continue;
                }
            }
            let x = (next() * x_levels as f64).floor();
            let y = 0.7 * x + (next() - 0.5) * 10.0;
            pts.push((x, y));
        }
        pts
    }

    /// Figure 6's shape: x on a month grid (`year + month/12`, so runs of
    /// equal x) and a slowly rising quotient with a heavy upper tail.
    fn month_grid(n: usize, seed: u64) -> Vec<(f64, f64)> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| {
                let x = 2007.0 + rng.index(17 * 12) as f64 / 12.0;
                let tail = if rng.index(10) == 0 { 0.5 } else { 0.02 };
                (x, 1.0 + 0.01 * (x - 2007.0) + tail * rng.f64())
            })
            .collect()
    }

    /// The 676 (frac_year, extrapolated quotient) points of the committed
    /// Figure 6 CSV, the ×1 corpus's Theil–Sen input.
    fn fig6_points() -> Vec<(f64, f64)> {
        include_str!("../../../data/fig6_extrapolated_quotient.csv")
            .lines()
            .skip(1)
            .map(|l| {
                let f: Vec<&str> = l.split(',').collect();
                (f[1].parse().expect("x"), f[2].parse().expect("y"))
            })
            .collect()
    }

    #[test]
    fn selection_is_bit_identical_to_the_naive_median() {
        let fig6 = fig6_points();
        assert_eq!(fig6.len(), 676);
        assert_bit_identical(&fig6, "fig6 month grid");
        assert_eq!(median_slope(&fig6), Some(0.04188285606558996));
        for (n, seed) in [(2, 1), (3, 2), (40, 3), (250, 4), (1_500, 5)] {
            assert_bit_identical(&month_grid(n, seed), &format!("month grid n={n}"));
        }
        // Equal y on both sides of each Δx sign: every slope is ±0, and a
        // lone slope keeps the sign its input order gives it.
        let flat: Vec<(f64, f64)> = (0..60).map(|i| (((i * 37) % 60) as f64, 3.0)).collect();
        assert_bit_identical(&flat, "flat y");
        let signed_zeros: Vec<(f64, f64)> = (0..30)
            .map(|i| ((i % 7) as f64, if i % 2 == 0 { 0.0 } else { -0.0 }))
            .collect();
        assert_bit_identical(&signed_zeros, "±0 y");
        assert_eq!(
            median_slope(&[(1.0, 5.0), (0.0, 5.0)]).map(f64::to_bits),
            Some((-0.0f64).to_bits())
        );
        assert_bit_identical(&[(1.0, 5.0), (0.0, 5.0)], "one slope, Δx < 0");
        assert_bit_identical(&[(0.0, 5.0), (1.0, 5.0)], "one slope, Δx > 0");
        assert_bit_identical(&[(1.0, -0.0), (0.0, 0.0), (1.0, -0.0)], "two zero slopes");
        assert_bit_identical(
            &[(2.0, 1.0), (2.0, 5.0), (3.0, 1.0), (3.0, 9.0)],
            "two x runs",
        );
        // Near-boundary: a rounded line (slopes within ulps of each other)
        // and an integer grid (large exact ties).
        let line: Vec<(f64, f64)> = (0..400)
            .map(|i| (2007.0 + i as f64 / 12.0, 0.1 * (i as f64 / 12.0)))
            .collect();
        assert_bit_identical(&line, "rounded line");
        let grid: Vec<(f64, f64)> = (0..300)
            .map(|i| ((i % 17) as f64, ((i * 7) % 5) as f64))
            .collect();
        assert_bit_identical(&grid, "integer grid");
        // Overflow: huge Δy over tiny Δx, and Δx itself overflowing (its
        // slopes are ±0 or NaN).
        let mut wild = month_grid(60, 6);
        wild.extend([
            (1e-300, 1e308),
            (2e-300, -1e308),
            (3e-300, 1e308),
            (-1e308, 1.0),
            (1e308, 2.0),
        ]);
        assert_bit_identical(&wild, "overflowing slopes");
        assert_bit_identical(&[(1e-300, 1e308), (2e-300, -1e308)], "only slope overflows");
        assert_bit_identical(
            &[(-1e308, f64::MAX), (1e308, -f64::MAX), (0.0, 0.0)],
            "Δx overflows",
        );
    }

    #[test]
    fn selection_matches_naive_on_hostile_values() {
        // Random small inputs over signed zeros, subnormals, huge and
        // overflow-prone values, small integers (ties) and plain noise.
        const POOL: [f64; 16] = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.1,
            0.3,
            2.0,
            1e-300,
            -1e-300,
            5e-324,
            1e300,
            -1e300,
            1e308,
            -1e308,
            f64::MAX,
            -f64::MAX,
        ];
        let mut rng = SplitMix64::new(42);
        let value = |rng: &mut SplitMix64| match rng.index(3) {
            0 => POOL[rng.index(POOL.len())],
            1 => rng.index(8) as f64 - 4.0,
            _ => (rng.f64() - 0.5) * 20.0,
        };
        for case in 0..400 {
            let n = rng.index(40);
            let pts: Vec<(f64, f64)> = (0..n).map(|_| (value(&mut rng), value(&mut rng))).collect();
            assert_bit_identical(&pts, &format!("case {case}: {pts:?}"));
        }
    }

    #[test]
    #[ignore = "n ≈ 5,000 naive reference; run with --release"]
    fn selection_is_bit_identical_at_five_thousand_points() {
        assert_bit_identical(&month_grid(5_000, 11), "month grid n=5000");
        assert_bit_identical(&lcg_points(4_999, 12, 1 << 40, 0), "distinct x n=4999");
        assert_bit_identical(&lcg_points(5_000, 13, 9, 5), "9 x levels, duplicates");
        let fig6 = fig6_points();
        let fig6_x7: Vec<(f64, f64)> = (0..7).flat_map(|_| fig6.iter().copied()).collect();
        assert_bit_identical(&fig6_x7, "Figure 6 points replicated ×7");
    }

    #[test]
    fn slope_selection_matches_naive_median() {
        // Tie-heavy shapes: few distinct x levels, duplicated (x, y)
        // points, and plain noise — equal in bits, not just close.
        for (n, seed, levels, dup) in [
            (2usize, 7u64, 4u64, 0usize),
            (3, 11, 2, 0),
            (50, 1, 5, 3),
            (127, 2, 16, 0),
            (128, 3, 1000, 2),
            (331, 4, 8, 4),
        ] {
            assert_bit_identical(
                &lcg_points(n, seed, levels, dup),
                &format!("n={n} seed={seed}"),
            );
        }
    }

    #[test]
    fn slope_selection_handles_replicated_corpus() {
        // The serve --scale path: every point appears k times. The
        // duplicated pairs have no slope and must not shift the rank.
        let base = lcg_points(40, 9, 12, 0);
        let mut replicated = Vec::new();
        for _ in 0..8 {
            replicated.extend(base.iter().copied());
        }
        assert!(naive_median_slope(&replicated).is_some());
        assert_bit_identical(&replicated, "replicated ×8");
    }

    #[test]
    fn slope_selection_exact_on_exact_line() {
        let pts: Vec<(f64, f64)> = (0..500).map(|i| (i as f64, 1.5 * i as f64 - 4.0)).collect();
        assert_eq!(median_slope(&pts), Some(1.5));
    }

    #[test]
    fn slope_selection_degenerate_all_same_x() {
        assert_eq!(median_slope(&[(2.0, 1.0), (2.0, 5.0), (2.0, 9.0)]), None);
        assert_bit_identical(&[(2.0, 1.0), (2.0, 5.0), (2.0, 9.0)], "all same x");
    }

    #[test]
    fn theil_sen_large_input_is_bounded_and_sane() {
        // 2,148 points, ~2.3M slopes: the window selection must still
        // recover the generating slope on noisy data.
        let pts = lcg_points(2_148, 5, 40, 0);
        let xs: Vec<f64> = pts.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pts.iter().map(|p| p.1).collect();
        let fit = theil_sen(&xs, &ys).unwrap();
        assert_eq!(fit.n, pts.len());
        assert!((fit.slope - 0.7).abs() < 0.05, "slope {}", fit.slope);
    }

    #[test]
    fn keep_thins_to_a_systematic_sample() {
        let mut buf = Vec::new();
        let mut keep = Keep::new(&mut buf, 4);
        keep.offer(3, |k| k as f64);
        keep.offer(6, |k| (3 + k) as f64);
        assert!(!keep.complete());
        assert_eq!(keep.stride, 4);
        assert_eq!(buf, [0.0, 4.0, 8.0]);
    }

    #[test]
    fn next_up_steps_over_negative_zero() {
        assert_eq!(next_up(0.0), 5e-324);
        assert_eq!(next_up(-0.0), 5e-324);
        assert_eq!(-next_up(-0.0), -5e-324);
        assert_eq!(next_up(1.0), 1.0 + f64::EPSILON);
        assert_eq!(next_up(-5e-324), 0.0);
    }

    #[test]
    fn slope_keys_roundtrip_and_order() {
        for v in [-f64::MAX, -1.5, -0.0, 0.0, 2.5, f64::MAX] {
            assert_eq!(key_slope(slope_key(v)).to_bits(), v.to_bits());
        }
        assert!(slope_key(-2.0) < slope_key(-1.0));
        assert!(slope_key(-1.0) < slope_key(-0.0));
        assert!(slope_key(-0.0) < slope_key(0.0));
        assert!(slope_key(0.0) < slope_key(1.0));
    }

    #[test]
    fn mann_kendall_detects_monotone_increase() {
        let ys: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let mk = mann_kendall(&ys).unwrap();
        assert_eq!(mk.s, (30 * 29 / 2) as i64);
        assert!(mk.p_value < 1e-6);
        assert_eq!(mk.direction(0.05), Some(true));
    }

    #[test]
    fn mann_kendall_detects_decrease() {
        let ys: Vec<f64> = (0..30).map(|i| -(i as f64)).collect();
        let mk = mann_kendall(&ys).unwrap();
        assert!(mk.s < 0);
        assert_eq!(mk.direction(0.05), Some(false));
    }

    #[test]
    fn mann_kendall_no_trend_in_alternating_series() {
        let ys: Vec<f64> = (0..40).map(|i| if i % 2 == 0 { 1.0 } else { 0.0 }).collect();
        let mk = mann_kendall(&ys).unwrap();
        assert_eq!(mk.direction(0.05), None, "z {} p {}", mk.z, mk.p_value);
    }

    #[test]
    fn mann_kendall_handles_ties() {
        let ys = [1.0, 1.0, 1.0, 2.0, 2.0, 3.0];
        let mk = mann_kendall(&ys).unwrap();
        assert!(mk.s > 0);
        assert!(mk.p_value <= 1.0);
    }

    #[test]
    fn mann_kendall_too_short() {
        assert!(mann_kendall(&[1.0, 2.0]).is_none());
    }

    #[test]
    fn normal_sf_sane() {
        assert!((normal_sf(0.0) - 0.5).abs() < 1e-6);
        assert!(normal_sf(1.96) < 0.026 && normal_sf(1.96) > 0.024);
        assert!(normal_sf(-1.96) > 0.97);
    }
}
