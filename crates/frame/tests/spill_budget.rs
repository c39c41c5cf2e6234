//! The resident budget of a spilling [`SegFrame`] is a real bound.
//!
//! Random row streams — fixed-width schemas and schemas with `Str`
//! columns of random length — are appended in random chunk sizes under
//! random budgets and segment caps. After every append and every
//! segment walk, the bytes the store holds in memory (resident sealed
//! segments plus the open tail) stay within the budget plus one segment.
//! Spilling never changes a byte of CSV or `group_agg` output, segment
//! boundaries depend on the rows and the budget alone (never on the
//! chunking), and a smaller budget never holds more memory.

use std::sync::Arc;

use proptest::prelude::*;
use tinyframe::{Agg, Column, Frame, MemSegmentStore, SegFrame, SegmentStore};

const VENDORS: [&str; 3] = ["Intel", "AMD", "Hewlett Packard Enterprise"];

prop_compose! {
    /// A frame of `n` rows; with `strs`, two string columns whose cells
    /// run from empty to a few hundred bytes.
    fn arb_frame()(n in 0usize..400, strs in any::<bool>())(
        keys in prop::collection::vec(0i64..6, n),
        vendors in prop::collection::vec(0usize..VENDORS.len(), n),
        values in prop::collection::vec(-1e3f64..1e3, n),
        flags in prop::collection::vec(any::<bool>(), n),
        names in prop::collection::vec(0usize..300, n),
        notes in prop::collection::vec(0usize..40, n),
        strs in Just(strs),
    ) -> Frame {
        let mut cols = vec![
            ("key", Column::from(keys)),
            ("vendor", Column::Sym(vendors.iter().map(|&i| spec_intern::intern(VENDORS[i])).collect())),
            ("value", Column::from(values)),
            ("flag", Column::from(flags)),
        ];
        if strs {
            let cell = |len: usize, c: char| std::iter::repeat_n(c, len).collect::<String>();
            cols.push(("name", Column::Str(names.iter().map(|&l| cell(l, 'n')).collect())));
            cols.push(("note", Column::Str(notes.iter().map(|&l| cell(l, 'é')).collect())));
        }
        Frame::from_columns(cols).expect("equal lengths")
    }
}

/// Split `n` rows into chunks whose sizes cycle through `sizes`.
fn chunking(n: usize, sizes: &[usize]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut at = 0;
    for &size in sizes.iter().cycle() {
        if at >= n {
            break;
        }
        let end = (at + size.max(1)).min(n);
        out.push((at, end));
        at = end;
    }
    out
}

/// Bytes each row of `frame` charges: cell widths plus strings.
fn row_bytes(frame: &Frame) -> Vec<usize> {
    let fixed: usize = frame.columns_iter().map(|c| c.dtype().cell_bytes()).sum();
    let strs: Vec<&[String]> = frame.columns_iter().filter_map(Column::as_str).collect();
    (0..frame.n_rows())
        .map(|r| fixed + strs.iter().map(|c| c[r].len()).sum::<usize>())
        .collect()
}

/// A budget of `percent` of the frame's row bytes, so cases range from
/// spilling nearly everything to spilling nothing.
fn budget_of(frame: &Frame, percent: usize) -> usize {
    row_bytes(frame).iter().sum::<usize>() * percent / 100
}

/// Append `frame` to a store spilling under `budget`, in `chunks`,
/// asserting the bound after every append.
fn build(frame: &Frame, segment_rows: usize, budget: usize, chunks: &[(usize, usize)]) -> SegFrame {
    let mut seg = SegFrame::new(segment_rows);
    seg.append_frame(frame.slice(0, 0)).unwrap();
    let store = Arc::new(MemSegmentStore::new());
    seg.enable_spill(store as Arc<dyn SegmentStore>, budget)
        .unwrap();
    let bound = bound(frame, budget);
    for &(a, b) in chunks {
        seg.append_frame(frame.slice(a, b)).unwrap();
        let held = seg.occupied_bytes();
        assert!(
            held <= bound,
            "after rows {a}..{b}: {held} bytes held, budget {budget} + one segment = {bound}"
        );
    }
    seg
}

/// The budget plus one segment: a spilling tail seals at a quarter of the
/// budget, overshooting by at most its last row.
fn bound(frame: &Frame, budget: usize) -> usize {
    budget + budget / 4 + row_bytes(frame).into_iter().max().unwrap_or(0)
}

/// Rows per segment, in order (the open tail last).
fn boundaries(seg: &mut SegFrame) -> Vec<usize> {
    let mut rows = Vec::new();
    seg.for_each_segment(|s| {
        rows.push(s.n_rows());
        Ok(())
    })
    .unwrap();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn budget_bounds_memory_and_output_is_unchanged(
        frame in arb_frame(),
        percent in 0usize..150,
        segment_rows in prop::collection::vec(1usize..200, 1),
        sizes in prop::collection::vec(1usize..90, 1..6),
    ) {
        let budget = budget_of(&frame, percent);
        let segment_rows = if segment_rows[0] > 150 { 64 * 1024 } else { segment_rows[0] };
        let n = frame.n_rows();
        let mut seg = build(&frame, segment_rows, budget, &chunking(n, &sizes));
        let bound = bound(&frame, budget);
        let specs = [("value", Agg::Mean), ("value", Agg::Median), ("value", Agg::Count)];
        let want_agg = frame.group_by(&["key", "vendor"]).unwrap().agg(&specs).unwrap().to_csv();
        for pass in 0..2 {
            prop_assert_eq!(seg.to_csv().unwrap(), frame.to_csv(), "pass {}", pass);
            prop_assert!(seg.occupied_bytes() <= bound, "after walk {}", pass);
            let agg = seg.group_agg(&["key", "vendor"], &specs).unwrap();
            prop_assert_eq!(agg.to_csv(), want_agg.clone());
            prop_assert!(seg.occupied_bytes() <= bound);
        }
        // Boundaries are the same appended whole, row by row, or chunked.
        let want = boundaries(&mut seg);
        prop_assert_eq!(want.iter().sum::<usize>(), n);
        for chunks in [vec![(0, n)], chunking(n, &[1]), chunking(n, &[7, 3])] {
            prop_assert_eq!(boundaries(&mut build(&frame, segment_rows, budget, &chunks)), want.clone());
        }
    }

    /// Doubling the budget never makes the spill store larger. Nothing
    /// leaves the store before the frame drops, so the bytes written are
    /// its high-water mark. (Segments scale with the budget, so at finer
    /// steps the evicted prefix can end one segment later and the store
    /// can grow by up to one segment.)
    #[test]
    fn doubling_the_budget_never_grows_the_spill_store(
        frame in arb_frame(),
        percent in 1usize..40,
        segment_rows in prop::collection::vec(1usize..200, 1),
        sizes in prop::collection::vec(1usize..90, 1..6),
    ) {
        let budget = budget_of(&frame, percent);
        let segment_rows = if segment_rows[0] > 150 { 64 * 1024 } else { segment_rows[0] };
        let chunks = chunking(frame.n_rows(), &sizes);
        let written: Vec<u64> = [1, 2, 4, 8]
            .iter()
            .map(|k| build(&frame, segment_rows, budget * k, &chunks).spill_bytes_written())
            .collect();
        prop_assert!(written.windows(2).all(|w| w[0] >= w[1]), "budget {}: {:?}", budget, written);
    }
}
