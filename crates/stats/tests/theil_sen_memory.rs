//! Heap bound of `theil_sen`: a counting global allocator records the
//! high-water mark of live heap bytes while it fits 5,000 points. The
//! materializing estimator would hold all ~12.5M pairwise slopes plus a
//! sorted copy (~200 MB); the window selection stays under 1 MiB.
//!
//! This file holds a single test so no other thread allocates while the
//! high-water mark is being taken.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` unchanged; the counters only
// observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // Charge old and new block as live together, as a moving
            // realloc holds both.
            grow(new_size);
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Peak heap bytes allocated by `f` beyond what was live before it.
fn peak_heap_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let out = f();
    (out, PEAK.load(Relaxed) - base)
}

#[test]
fn theil_sen_at_five_thousand_points_peaks_under_one_mib() {
    const MIB: usize = 1 << 20;
    let mut rng = tinystats::SplitMix64::new(3);
    // Figure 6's shape (x on a month grid) and all-distinct x.
    let month: Vec<f64> = (0..5_000)
        .map(|_| 2007.0 + rng.index(17 * 12) as f64 / 12.0)
        .collect();
    let distinct: Vec<f64> = (0..5_000).map(|i| i as f64 + 0.5 * rng.f64()).collect();
    for (shape, xs) in [("month grid", month), ("distinct x", distinct)] {
        let ys: Vec<f64> = xs.iter().map(|x| 0.01 * x + rng.f64()).collect();
        let (fit, peak) = peak_heap_of(|| tinystats::theil_sen(&xs, &ys));
        let fit = fit.expect("5,000 points have slopes");
        assert_eq!(fit.n, 5_000);
        assert!(
            (fit.slope - 0.01).abs() < 0.005,
            "{shape}: slope {}",
            fit.slope
        );
        assert!(peak < MIB, "{shape}: theil_sen peaked at {peak} heap bytes");
        assert!(
            peak > 0,
            "{shape}: the counting allocator saw no allocation"
        );
    }
}
