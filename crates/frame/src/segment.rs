//! The segmented column store.
//!
//! A [`SegFrame`] holds the same logical table as a [`Frame`], but split
//! into a list of row segments (target [`DEFAULT_SEGMENT_ROWS`] rows each;
//! ragged segments are allowed — every operation is boundary-independent).
//! Segments are *sealed* (immutable) once pushed, which buys three things:
//!
//! * parallel ingest shards fill private arenas and the merge is a
//!   segment-list splice ([`SegFrame::splice`]) instead of a `vstack` copy;
//! * cold segments can be evicted to a [`SegmentStore`] and transparently
//!   reloaded — an LRU policy bounds resident bytes, so corpus size no
//!   longer bounds RSS (see [`SegFrame::enable_spill`] for what the budget
//!   covers);
//! * aggregation streams over one segment at a time
//!   ([`SegFrame::group_agg`]) without ever materialising the full table.
//!
//! **Byte-identity contract:** every streaming operation visits rows in
//! exactly the global row order of the equivalent monolithic frame and
//! applies the same floating-point operations in the same order, so
//! `group_agg`/`to_csv`/`left_join` output is bit-identical to
//! `Frame::group_by().agg()`/`Frame::to_csv`/`Frame::left_join` (the
//! figure goldens pin this). In particular, per-group aggregation state is
//! carried *sequentially* across segments — partial per-segment summaries
//! are never merged, because Welford merges are associative only up to
//! floating-point rounding.

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use tinystats::Summary;

use crate::column::{Column, DType, KeyValue};
use crate::csv::{append_data_rows, append_header_line};
use crate::error::{FrameError, Result};
use crate::frame::Frame;
use crate::groupby::{rebuild_key_column, Agg};
use crate::segcodec::decode_frame;
use crate::spill::SegmentStore;

/// Target rows per sealed segment (64Ki).
pub const DEFAULT_SEGMENT_ROWS: usize = 64 * 1024;

// Process-wide occupancy gauges (across every live SegFrame), published to
// spec-obs when metrics are enabled. `spill_bytes` is cumulative: total
// encoded bytes ever written to a store.
static SEGMENTS_RESIDENT: AtomicI64 = AtomicI64::new(0);
static SEGMENTS_SPILLED: AtomicI64 = AtomicI64::new(0);
static SPILL_BYTES: AtomicI64 = AtomicI64::new(0);

fn publish_gauges() {
    if spec_obs::enabled() {
        spec_obs::set_gauge(
            "frame.segments_resident",
            SEGMENTS_RESIDENT.load(Ordering::Relaxed),
        );
        spec_obs::set_gauge(
            "frame.segments_spilled",
            SEGMENTS_SPILLED.load(Ordering::Relaxed),
        );
        spec_obs::set_gauge("frame.spill_bytes", SPILL_BYTES.load(Ordering::Relaxed));
    }
}

fn gauge_shift(resident: i64, spilled: i64) {
    SEGMENTS_RESIDENT.fetch_add(resident, Ordering::Relaxed);
    SEGMENTS_SPILLED.fetch_add(spilled, Ordering::Relaxed);
    publish_gauges();
}

/// Heap bytes a frame's column buffers hold (capacity, not length).
fn frame_heap_bytes(frame: &Frame) -> usize {
    frame.columns_iter().map(Column::heap_bytes).sum()
}

/// One sealed segment: resident (`frame` present) or evicted to the store
/// under `spill_id`.
#[derive(Debug)]
struct Slot {
    rows: usize,
    bytes: usize,
    last_touch: u64,
    spill_id: Option<u64>,
    frame: Option<Frame>,
}

#[derive(Debug)]
struct Spill {
    store: Arc<dyn SegmentStore>,
    max_resident_bytes: usize,
    next_id: u64,
}

/// A table stored as a list of immutable row segments plus an open tail
/// that [`SegFrame::append_frame`] fills and seals at `segment_rows` (and,
/// once spilling, at a quarter of the resident budget).
#[derive(Debug)]
pub struct SegFrame {
    names: Vec<String>,
    dtypes: Vec<DType>,
    segment_rows: usize,
    slots: Vec<Slot>,
    tail: Option<Frame>,
    /// Seal-rule bytes of the tail's rows (cell widths plus string
    /// contents), tracked while spilling.
    tail_fill: usize,
    clock: u64,
    spill: Option<Spill>,
    spill_bytes_written: u64,
}

impl SegFrame {
    /// Empty store; the schema is adopted from the first appended frame.
    pub fn new(segment_rows: usize) -> SegFrame {
        SegFrame {
            names: Vec::new(),
            dtypes: Vec::new(),
            segment_rows: segment_rows.max(1),
            slots: Vec::new(),
            tail: None,
            tail_fill: 0,
            clock: 0,
            spill: None,
            spill_bytes_written: 0,
        }
    }

    /// Empty store with the default segment size.
    pub fn with_default_rows() -> SegFrame {
        SegFrame::new(DEFAULT_SEGMENT_ROWS)
    }

    /// Split a monolithic frame into segments.
    pub fn from_frame(frame: Frame, segment_rows: usize) -> SegFrame {
        let mut seg = SegFrame::new(segment_rows);
        seg.append_frame(frame).expect("fresh store accepts its first schema");
        seg
    }

    /// Total rows across all segments and the tail.
    pub fn n_rows(&self) -> usize {
        self.slots.iter().map(|s| s.rows).sum::<usize>()
            + self.tail.as_ref().map_or(0, Frame::n_rows)
    }

    /// Sealed segments (the open tail is not counted).
    pub fn n_segments(&self) -> usize {
        self.slots.len()
    }

    /// Sealed segments currently resident in memory.
    pub fn segments_resident(&self) -> usize {
        self.slots.iter().filter(|s| s.frame.is_some()).count()
    }

    /// Sealed segments currently evicted to the store.
    pub fn segments_spilled(&self) -> usize {
        self.slots.iter().filter(|s| s.frame.is_none()).count()
    }

    /// Heap bytes held by resident sealed segments.
    pub fn resident_bytes(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.frame.is_some())
            .map(|s| s.bytes)
            .sum()
    }

    /// Heap bytes held by the open (unsealed) tail segment. Not part of
    /// [`Self::resident_bytes`] — the tail is never a spill victim — but
    /// it counts toward a spilling store's budget.
    pub fn tail_bytes(&self) -> usize {
        self.tail.as_ref().map(frame_heap_bytes).unwrap_or(0)
    }

    /// Heap bytes the store holds in memory: resident sealed segments plus
    /// the open tail.
    pub fn occupied_bytes(&self) -> usize {
        self.resident_bytes() + self.tail_bytes()
    }

    /// Cumulative encoded bytes this store has written to its spill store.
    pub fn spill_bytes_written(&self) -> u64 {
        self.spill_bytes_written
    }

    /// Column names in order (empty before the first append).
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Schema as `(name, dtype)` pairs.
    pub fn schema(&self) -> Vec<(&str, DType)> {
        self.names
            .iter()
            .map(String::as_str)
            .zip(self.dtypes.iter().copied())
            .collect()
    }

    /// Rows per sealed segment this store targets.
    pub fn segment_rows(&self) -> usize {
        self.segment_rows
    }

    fn adopt_or_check_schema(&mut self, frame: &Frame) -> Result<()> {
        if self.names.is_empty() && self.slots.is_empty() && self.tail.is_none() {
            self.names = frame.names().to_vec();
            self.dtypes = frame.columns_iter().map(Column::dtype).collect();
            return Ok(());
        }
        let dtypes: Vec<DType> = frame.columns_iter().map(Column::dtype).collect();
        if frame.names() != self.names.as_slice() || dtypes != self.dtypes {
            return Err(FrameError::Csv(format!(
                "segment schema mismatch: {:?} vs {:?}",
                frame.names(),
                self.names
            )));
        }
        Ok(())
    }

    fn empty_frame(&self) -> Frame {
        let mut f = Frame::new();
        for (name, dt) in self.names.iter().zip(&self.dtypes) {
            let col = match dt {
                DType::F64 => Column::F64(Vec::new()),
                DType::I64 => Column::I64(Vec::new()),
                DType::Str => Column::Str(Vec::new()),
                DType::Bool => Column::Bool(Vec::new()),
                DType::Sym => Column::Sym(Vec::new()),
            };
            f.add_column(name.clone(), col).expect("fresh frame");
        }
        f
    }

    /// A spilling store's open tail seals once its rows charge a quarter
    /// of the budget; `None` when no spill store is attached.
    fn seal_target(&self) -> Option<usize> {
        self.spill.as_ref().map(|s| s.max_resident_bytes / 4)
    }

    /// How many rows of `chunk` from `from` the open tail takes next, its
    /// fill afterwards, and whether it then seals. Every store seals at
    /// `segment_rows`; a spilling store also seals at the first row that
    /// brings the fill to [`Self::seal_target`]. The rule reads row
    /// contents and the budget only — never buffer capacities — so segment
    /// boundaries are the same for any chunking of the same rows.
    fn tail_take(&self, chunk: &Frame, from: usize) -> (usize, usize, bool) {
        let rows = self.tail.as_ref().map_or(0, Frame::n_rows);
        let max = (self.segment_rows - rows).min(chunk.n_rows() - from);
        let Some(target) = self.seal_target() else {
            return (max, 0, rows + max == self.segment_rows);
        };
        let fixed: usize = self.dtypes.iter().map(|d| d.cell_bytes()).sum();
        let strs: Vec<&[String]> = chunk.columns_iter().filter_map(Column::as_str).collect();
        let (mut take, mut fill) = (0, self.tail_fill);
        while take < max && (fill < target || rows + take == 0) {
            fill += fixed + strs.iter().map(|col| col[from + take].len()).sum::<usize>();
            take += 1;
        }
        (
            take,
            fill,
            rows + take == self.segment_rows || fill >= target,
        )
    }

    /// Append rows, filling the open tail and sealing full segments.
    pub fn append_frame(&mut self, chunk: Frame) -> Result<()> {
        if chunk.n_cols() == 0 {
            return Ok(());
        }
        self.adopt_or_check_schema(&chunk)?;
        let total = chunk.n_rows();
        let (take, fill, seals) = self.tail_take(&chunk, 0);
        if self.tail.is_none() && take == total {
            // Fast path: a chunk that fits an empty tail moves in without a
            // row copy.
            self.tail = Some(chunk);
            self.tail_fill = fill;
            if seals {
                self.seal_tail()?;
            }
            return self.enforce_budget(None);
        }
        let mut offset = 0;
        while offset < total {
            let (take, fill, seals) = self.tail_take(&chunk, offset);
            if take > 0 {
                if self.tail.is_none() {
                    self.tail = Some(self.empty_frame());
                }
                self.tail
                    .as_mut()
                    .expect("just ensured")
                    .extend_rows(&chunk, offset, offset + take)?;
                self.tail_fill = fill;
                offset += take;
            }
            if seals {
                self.seal_tail()?;
            }
        }
        self.enforce_budget(None)
    }

    fn seal_tail(&mut self) -> Result<()> {
        self.tail_fill = 0;
        if let Some(mut tail) = self.tail.take() {
            if tail.n_rows() > 0 {
                if self.spill.is_some() {
                    // Sealed segments are charged at the heap they hold:
                    // give back any growth slack the tail carried.
                    tail.shrink_to_fit();
                }
                self.push_sealed_inner(tail)?;
            }
        }
        Ok(())
    }

    /// Push a frame as its own sealed (possibly ragged) segment. This is
    /// the shard-arena merge path: no row copy, the frame is adopted
    /// wholesale.
    pub fn push_sealed(&mut self, frame: Frame) -> Result<()> {
        if frame.n_cols() == 0 || frame.n_rows() == 0 {
            return Ok(());
        }
        self.adopt_or_check_schema(&frame)?;
        // Keep global row order: everything in the tail precedes the new
        // segment, so the tail must seal first.
        self.seal_tail()?;
        self.push_sealed_inner(frame)
    }

    fn push_sealed_inner(&mut self, frame: Frame) -> Result<()> {
        self.clock += 1;
        self.slots.push(Slot {
            rows: frame.n_rows(),
            bytes: frame_heap_bytes(&frame),
            last_touch: self.clock,
            spill_id: None,
            frame: Some(frame),
        });
        gauge_shift(1, 0);
        self.enforce_budget(None)
    }

    /// Splice another store's segment list onto this one (the `vstack`
    /// replacement). `other` must not have spill enabled — splicing happens
    /// during the in-memory merge phase, before a store is attached.
    pub fn splice(&mut self, mut other: SegFrame) -> Result<()> {
        if other.spill.is_some() {
            return Err(FrameError::Spill(
                "cannot splice a store that already spilled segments".into(),
            ));
        }
        if other.n_rows() == 0 {
            return Ok(());
        }
        other.seal_tail()?;
        let first = other.slots.first().and_then(|s| s.frame.as_ref());
        if let Some(frame) = first {
            self.adopt_or_check_schema(frame)?;
        }
        self.seal_tail()?;
        // Move the slots over; drain them from `other` so its Drop does
        // not double-count the occupancy gauges.
        for mut slot in other.slots.drain(..) {
            self.clock += 1;
            slot.last_touch = self.clock;
            self.slots.push(slot);
        }
        self.enforce_budget(None)
    }

    /// Attach a spill store and bound what the store holds in memory —
    /// resident sealed segments, the open tail and the one encode buffer
    /// an eviction allocates — to `max_resident_bytes`.
    ///
    /// From here on the tail seals at a quarter of the budget (or at
    /// `segment_rows`, if sooner), another quarter is held back for the
    /// eviction buffer, and sealed segments share the rest, least recently
    /// used out first. Not covered: the chunk the caller is appending, and
    /// a segment sealed before spilling that is larger than the budget
    /// (it stays resident while a walk reads it). A non-empty tail seals
    /// now, so it can be evicted; segments beyond the budget are evicted
    /// immediately.
    pub fn enable_spill(
        &mut self,
        store: Arc<dyn SegmentStore>,
        max_resident_bytes: usize,
    ) -> Result<()> {
        self.spill = Some(Spill {
            store,
            max_resident_bytes,
            next_id: 0,
        });
        self.seal_tail()?;
        self.enforce_budget(None)
    }

    /// True when a spill store is attached.
    pub fn spill_enabled(&self) -> bool {
        self.spill.is_some()
    }

    fn evict(&mut self, i: usize) -> Result<()> {
        let Some(frame) = self.slots[i].frame.take() else {
            return Ok(());
        };
        if self.slots[i].spill_id.is_none() {
            // Sealed segments are immutable, so each is encoded and stored
            // at most once; later evictions just drop the resident copy.
            let spill = self.spill.as_mut().expect("evict requires spill");
            let id = spill.next_id;
            spill.next_id += 1;
            let written = match spill.store.store_frame(id, &frame) {
                Ok(written) => written,
                Err(e) => {
                    // Failed spill: keep the segment resident and surface
                    // the error; the store stays consistent.
                    self.slots[i].frame = Some(frame);
                    return Err(FrameError::Spill(format!("storing segment: {e}")));
                }
            };
            self.slots[i].spill_id = Some(id);
            self.spill_bytes_written += written as u64;
            SPILL_BYTES.fetch_add(written as i64, Ordering::Relaxed);
        }
        gauge_shift(-1, 1);
        Ok(())
    }

    fn enforce_budget(&mut self, keep: Option<usize>) -> Result<()> {
        let (Some(spill), Some(target)) = (&self.spill, self.seal_target()) else {
            return Ok(());
        };
        let budget = spill.max_resident_bytes;
        // The tail is charged at least the target it seals at, however
        // empty, and one more target is held for the eviction's encode
        // buffer; resident sealed segments get what is left.
        let held = self.tail_bytes().max(target) + target;
        while self.resident_bytes() + held > budget {
            let victim = self
                .slots
                .iter()
                .enumerate()
                .filter(|(i, s)| s.frame.is_some() && Some(*i) != keep)
                .min_by_key(|(_, s)| s.last_touch)
                .map(|(i, _)| i);
            let Some(i) = victim else { break };
            self.evict(i)?;
        }
        Ok(())
    }

    fn load_slot(&mut self, i: usize) -> Result<()> {
        self.clock += 1;
        self.slots[i].last_touch = self.clock;
        if self.slots[i].frame.is_some() {
            return Ok(());
        }
        let id = self.slots[i]
            .spill_id
            .expect("evicted segment has a spill id");
        let store = Arc::clone(&self.spill.as_ref().expect("spill enabled").store);
        let payload = store
            .load(id)
            .map_err(|e| FrameError::Spill(format!("loading segment: {e}")))?;
        let frame = decode_frame(&payload)?;
        // Free the encoded copy before `enforce_budget` encodes another.
        drop(payload);
        if frame.n_rows() != self.slots[i].rows {
            return Err(FrameError::Spill(format!(
                "segment {id} decoded to {} rows, expected {}",
                frame.n_rows(),
                self.slots[i].rows
            )));
        }
        self.slots[i].bytes = frame_heap_bytes(&frame);
        self.slots[i].frame = Some(frame);
        gauge_shift(1, -1);
        self.enforce_budget(Some(i))
    }

    /// Visit every segment (sealed, then the open tail) in global row
    /// order, loading and evicting as the resident budget demands.
    pub fn for_each_segment<F>(&mut self, mut f: F) -> Result<()>
    where
        F: FnMut(&Frame) -> Result<()>,
    {
        for i in 0..self.slots.len() {
            self.load_slot(i)?;
            let frame = self.slots[i].frame.as_ref().expect("just loaded");
            f(frame)?;
        }
        if let Some(tail) = &self.tail {
            if tail.n_rows() > 0 {
                f(tail)?;
            }
        }
        Ok(())
    }

    /// Materialise the full monolithic frame (loads every segment; meant
    /// for small results and tests, not the 1M-row path).
    pub fn to_frame(&mut self) -> Result<Frame> {
        let mut out = self.empty_frame();
        self.for_each_segment(|seg| {
            out.vstack(seg)?;
            Ok(())
        })?;
        Ok(out)
    }

    /// Numeric (f64-promoted) column, concatenated across segments.
    pub fn numeric(&mut self, name: &str) -> Result<Vec<f64>> {
        self.check_numeric(name)?;
        let mut out = Vec::with_capacity(self.n_rows());
        self.for_each_segment(|seg| {
            out.extend(seg.numeric(name)?);
            Ok(())
        })?;
        Ok(out)
    }

    fn col_index(&self, name: &str) -> Result<usize> {
        self.names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| FrameError::NoSuchColumn(name.to_string()))
    }

    fn check_numeric(&self, name: &str) -> Result<()> {
        let dt = self.dtypes[self.col_index(name)?];
        if matches!(dt, DType::F64 | DType::I64) {
            Ok(())
        } else {
            Err(FrameError::TypeMismatch {
                column: name.to_string(),
                expected: "f64 or i64",
                got: dt.name(),
            })
        }
    }

    fn check_key(&self, name: &str) -> Result<()> {
        let dt = self.dtypes[self.col_index(name)?];
        if dt == DType::F64 {
            Err(FrameError::TypeMismatch {
                column: name.to_string(),
                expected: "discrete (i64/str/bool)",
                got: "f64",
            })
        } else {
            Ok(())
        }
    }

    /// Streaming group-by + aggregation, bit-identical to
    /// `Frame::group_by(keys)?.agg(specs)` on the materialised table.
    ///
    /// Per-(group, spec) state is one [`Summary`] (fed in global row
    /// order — the same push sequence the monolithic path performs) plus,
    /// for order-statistic aggregates, the collected finite values.
    pub fn group_agg(&mut self, keys: &[&str], specs: &[(&str, Agg)]) -> Result<Frame> {
        for &k in keys {
            self.check_key(k)?;
        }
        for (name, _) in specs {
            self.check_numeric(name)?;
        }

        struct SpecState {
            summary: Summary,
            /// Sum of finite values, folded from `-0.0` exactly like the
            /// monolithic `finite.iter().sum::<f64>()` — `Summary`'s own
            /// accumulator starts at `+0.0`, which differs in the signed
            /// zero of empty and all-negative-zero groups.
            sum: f64,
            /// Finite values in row order, kept only for Median/Quantile.
            values: Option<Vec<f64>>,
        }
        struct GroupState {
            rows: u64,
            specs: Vec<SpecState>,
        }
        let needs_values: Vec<bool> = specs
            .iter()
            .map(|(_, agg)| matches!(agg, Agg::Median | Agg::Quantile(_)))
            .collect();

        let mut states: HashMap<Vec<KeyValue>, GroupState> = HashMap::new();
        let needs = &needs_values;
        self.for_each_segment(|seg| {
            let mut key_cols = Vec::with_capacity(keys.len());
            for &k in keys {
                key_cols.push(seg.column(k)?);
            }
            let mut numeric: Vec<Vec<f64>> = Vec::with_capacity(specs.len());
            for (name, _) in specs {
                numeric.push(seg.numeric(name)?);
            }
            // `row` cursors several parallel structures (key columns via
            // `key(row)`, one numeric vec per spec), not a single slice.
            #[allow(clippy::needless_range_loop)]
            for row in 0..seg.n_rows() {
                let key: Vec<KeyValue> = key_cols
                    .iter()
                    .map(|c| c.key(row).expect("discrete column in range"))
                    .collect();
                let state = states.entry(key).or_insert_with(|| GroupState {
                    rows: 0,
                    specs: needs
                        .iter()
                        .map(|&nv| SpecState {
                            summary: Summary::new(),
                            sum: -0.0,
                            values: nv.then(Vec::new),
                        })
                        .collect(),
                });
                state.rows += 1;
                for (si, spec) in state.specs.iter_mut().enumerate() {
                    let x = numeric[si][row];
                    spec.summary.push(x);
                    if x.is_finite() {
                        spec.sum += x;
                        if let Some(values) = &mut spec.values {
                            values.push(x);
                        }
                    }
                }
            }
            Ok(())
        })?;

        let mut groups: Vec<(Vec<KeyValue>, GroupState)> = states.into_iter().collect();
        groups.sort_by(|a, b| a.0.cmp(&b.0));

        let mut out = Frame::new();
        for (ki, &key_name) in keys.iter().enumerate() {
            let cells: Vec<KeyValue> = groups.iter().map(|(k, _)| k[ki].clone()).collect();
            out.add_column(key_name.to_string(), rebuild_key_column(&cells))?;
        }
        for (si, (name, agg)) in specs.iter().enumerate() {
            let data: Vec<f64> = groups
                .iter()
                .map(|(_, g)| {
                    let spec = &g.specs[si];
                    match agg {
                        Agg::Count => g.rows as f64,
                        Agg::Sum => spec.sum,
                        Agg::Mean => spec.summary.mean().unwrap_or(f64::NAN),
                        Agg::Std => spec.summary.std_dev().unwrap_or(f64::NAN),
                        Agg::Min => spec.summary.min().unwrap_or(f64::NAN),
                        Agg::Max => spec.summary.max().unwrap_or(f64::NAN),
                        Agg::Median => {
                            tinystats::median(spec.values.as_deref().expect("values kept"))
                                .unwrap_or(f64::NAN)
                        }
                        Agg::Quantile(q) => tinystats::quantile(
                            spec.values.as_deref().expect("values kept"),
                            *q,
                        )
                        .unwrap_or(f64::NAN),
                    }
                })
                .collect();
            out.add_column(format!("{name}_{}", agg.suffix()), Column::F64(data))?;
        }
        Ok(out)
    }

    /// Streaming CSV, byte-identical to `Frame::to_csv` on the
    /// materialised table.
    pub fn to_csv(&mut self) -> Result<String> {
        let mut out = String::new();
        append_header_line(&self.names, &mut out);
        self.for_each_segment(|seg| {
            append_data_rows(seg, &mut out);
            Ok(())
        })?;
        Ok(out)
    }

    /// Per-segment left join against a small in-memory right frame; the
    /// concatenation equals `Frame::left_join` on the materialised table
    /// (the match index depends only on `right`, and fills are per-row).
    pub fn left_join(&mut self, right: &Frame, keys: &[&str]) -> Result<SegFrame> {
        let mut out = SegFrame::new(self.segment_rows);
        // Adopt the joined schema up front so a row-less store still
        // renders the right header (for_each_segment skips empty tails).
        out.append_frame(self.empty_frame().left_join(right, keys)?)?;
        self.for_each_segment(|seg| {
            out.push_sealed(seg.left_join(right, keys)?)?;
            Ok(())
        })?;
        Ok(out)
    }
}

impl Drop for SegFrame {
    fn drop(&mut self) {
        let resident = self.segments_resident() as i64;
        let spilled = self.segments_spilled() as i64;
        if resident != 0 || spilled != 0 {
            gauge_shift(-resident, -spilled);
        }
        if let Some(spill) = &self.spill {
            for slot in &self.slots {
                if let Some(id) = slot.spill_id {
                    spill.store.remove(id);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spill::MemSegmentStore;

    fn sample(n: usize) -> Frame {
        let years: Vec<i64> = (0..n).map(|i| 2007 + (i % 5) as i64).collect();
        let vendors: Vec<spec_intern::Sym> = (0..n)
            .map(|i| spec_intern::intern(["Intel", "AMD", "Dell Inc."][i % 3]))
            .collect();
        let watts: Vec<f64> = (0..n)
            .map(|i| {
                if i % 7 == 0 {
                    f64::NAN
                } else {
                    100.0 + (i as f64) * 1.37
                }
            })
            .collect();
        let ok: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        Frame::from_columns([
            ("year", Column::I64(years)),
            ("vendor", Column::Sym(vendors)),
            ("watts", Column::F64(watts)),
            ("ok", Column::Bool(ok)),
        ])
        .unwrap()
    }

    #[test]
    fn append_seals_full_segments() {
        let mut seg = SegFrame::new(10);
        seg.append_frame(sample(25)).unwrap();
        assert_eq!(seg.n_rows(), 25);
        assert_eq!(seg.n_segments(), 2, "two sealed, 5 rows in the tail");
        seg.append_frame(sample(5)).unwrap();
        assert_eq!(seg.n_segments(), 3, "tail filled to exactly 10 seals");
        assert_eq!(seg.n_rows(), 30);
    }

    /// Frame equality with NaN-tolerant float comparison (the derived
    /// `PartialEq` treats NaN ≠ NaN).
    fn assert_same_table(got: &Frame, want: &Frame) {
        assert_eq!(got.to_csv(), want.to_csv());
        for (name, dt) in want.schema() {
            if dt == DType::F64 {
                let g: Vec<u64> = got.f64s(name).unwrap().iter().map(|x| x.to_bits()).collect();
                let w: Vec<u64> = want.f64s(name).unwrap().iter().map(|x| x.to_bits()).collect();
                assert_eq!(g, w, "column {name}");
            }
        }
    }

    #[test]
    fn to_frame_matches_monolithic() {
        let mono = sample(37);
        let mut seg = SegFrame::from_frame(mono.clone(), 8);
        assert_same_table(&seg.to_frame().unwrap(), &mono);
    }

    #[test]
    fn splice_preserves_row_order() {
        let all = sample(30);
        let mut a = SegFrame::from_frame(all.slice(0, 13), 8);
        let b = SegFrame::from_frame(all.slice(13, 30), 8);
        a.splice(b).unwrap();
        assert_same_table(&a.to_frame().unwrap(), &all);
    }

    #[test]
    fn group_agg_bit_identical_to_monolithic() {
        let mono = sample(101);
        let specs = [
            ("watts", Agg::Count),
            ("watts", Agg::Mean),
            ("watts", Agg::Std),
            ("watts", Agg::Min),
            ("watts", Agg::Max),
            ("watts", Agg::Median),
            ("watts", Agg::Sum),
            ("watts", Agg::Quantile(0.25)),
        ];
        let expected = mono
            .group_by(&["year", "vendor"])
            .unwrap()
            .agg(&specs)
            .unwrap();
        for seg_rows in [1, 7, 64, 1024] {
            let mut seg = SegFrame::from_frame(mono.clone(), seg_rows);
            let got = seg.group_agg(&["year", "vendor"], &specs).unwrap();
            assert_eq!(got.to_csv(), expected.to_csv(), "seg_rows={seg_rows}");
        }
    }

    #[test]
    fn csv_bit_identical_to_monolithic() {
        let mono = sample(41);
        let mut seg = SegFrame::from_frame(mono.clone(), 9);
        assert_eq!(seg.to_csv().unwrap(), mono.to_csv());
    }

    #[test]
    fn join_bit_identical_to_monolithic() {
        let mono = sample(33);
        let right = Frame::from_columns([
            ("year", Column::I64(vec![2007, 2009, 2011])),
            ("era", Column::from(vec!["early", "mid", "late"])),
            ("watts", Column::F64(vec![1.0, 2.0, 3.0])),
        ])
        .unwrap();
        let expected = mono.left_join(&right, &["year"]).unwrap();
        let mut seg = SegFrame::from_frame(mono, 7);
        let mut joined = seg.left_join(&right, &["year"]).unwrap();
        assert_eq!(joined.to_csv().unwrap(), expected.to_csv());
    }

    #[test]
    fn spill_bounds_resident_bytes_and_reloads_identically() {
        let mono = sample(200);
        let mut seg = SegFrame::from_frame(mono.clone(), 16);
        let full_bytes = seg.resident_bytes();
        let store = Arc::new(MemSegmentStore::new());
        let budget = full_bytes / 4;
        seg.enable_spill(Arc::clone(&store) as Arc<dyn SegmentStore>, budget)
            .unwrap();
        assert!(
            seg.resident_bytes() <= budget,
            "{} > {budget}",
            seg.resident_bytes()
        );
        assert!(seg.segments_spilled() > 0);
        assert!(!store.is_empty());
        assert!(seg.spill_bytes_written() > 0);
        // Walks still see every row, and the budget holds throughout.
        assert_same_table(&seg.to_frame().unwrap(), &mono);
        let specs = [("watts", Agg::Mean), ("watts", Agg::Median)];
        let expected = mono.group_by(&["year"]).unwrap().agg(&specs).unwrap();
        let got = seg.group_agg(&["year"], &specs).unwrap();
        assert_eq!(got.to_csv(), expected.to_csv());
        assert!(seg.resident_bytes() <= budget);
    }

    #[test]
    fn sealed_segments_are_charged_the_heap_they_hold() {
        let rows = sample(10);
        let row_bytes = 8 + 4 + 8 + 1;
        // Grown row by row, an unspilled tail seals with doubling slack,
        // and the slack is charged.
        let mut seg = SegFrame::new(10);
        for i in 0..10 {
            seg.append_frame(rows.slice(i, i + 1)).unwrap();
        }
        assert_eq!(seg.n_segments(), 1);
        assert!(
            seg.resident_bytes() > 10 * row_bytes,
            "{}",
            seg.resident_bytes()
        );
        // A spilling tail seals at exactly the heap its rows need.
        let mut seg = SegFrame::new(10);
        seg.enable_spill(Arc::new(MemSegmentStore::new()), 1 << 20)
            .unwrap();
        for i in 0..10 {
            seg.append_frame(rows.slice(i, i + 1)).unwrap();
        }
        assert_eq!(seg.n_segments(), 1);
        assert_eq!(seg.resident_bytes(), 10 * row_bytes);
    }

    #[test]
    fn spilling_tail_seals_at_a_quarter_of_the_budget_and_counts() {
        let row_bytes = 8 + 4 + 8 + 1;
        let budget = 40 * row_bytes;
        let mut seg = SegFrame::new(DEFAULT_SEGMENT_ROWS);
        seg.enable_spill(Arc::new(MemSegmentStore::new()), budget)
            .unwrap();
        seg.append_frame(sample(95)).unwrap();
        // Ten-row segments, five-row tail; the tail and the eviction
        // buffer each hold a quarter back, so two segments stay resident.
        assert_eq!(seg.n_segments(), 9);
        assert!(seg.tail_bytes() >= 5 * row_bytes);
        assert_eq!(seg.resident_bytes(), 2 * 10 * row_bytes);
        assert!(seg.occupied_bytes() <= budget);
        assert_same_table(&seg.to_frame().unwrap(), &sample(95));
    }

    #[test]
    fn drop_removes_spilled_segments_from_store() {
        let store = Arc::new(MemSegmentStore::new());
        {
            let mut seg = SegFrame::from_frame(sample(100), 10);
            seg.enable_spill(Arc::clone(&store) as Arc<dyn SegmentStore>, 0)
                .unwrap();
            assert!(!store.is_empty());
        }
        assert!(store.is_empty(), "drop cleans the store");
    }

    #[test]
    fn splice_rejects_spilled_source() {
        let mut a = SegFrame::from_frame(sample(20), 8);
        let mut b = SegFrame::from_frame(sample(20), 8);
        b.enable_spill(Arc::new(MemSegmentStore::new()), 0).unwrap();
        assert!(matches!(a.splice(b), Err(FrameError::Spill(_))));
    }

    #[test]
    fn schema_mismatch_rejected() {
        let mut seg = SegFrame::from_frame(sample(5), 8);
        let other = Frame::from_columns([("x", Column::F64(vec![1.0]))]).unwrap();
        assert!(seg.append_frame(other.clone()).is_err());
        assert!(seg.push_sealed(other).is_err());
    }

    #[test]
    fn numeric_concatenates_and_checks_types() {
        let mono = sample(23);
        let mut seg = SegFrame::from_frame(mono.clone(), 6);
        let got: Vec<u64> = seg
            .numeric("watts")
            .unwrap()
            .iter()
            .map(|x| x.to_bits())
            .collect();
        let want: Vec<u64> = mono
            .numeric("watts")
            .unwrap()
            .iter()
            .map(|x| x.to_bits())
            .collect();
        assert_eq!(got, want);
        assert!(seg.numeric("year").is_ok(), "i64 promotes");
        assert!(matches!(
            seg.numeric("vendor"),
            Err(FrameError::TypeMismatch { .. })
        ));
        assert!(matches!(
            seg.numeric("nope"),
            Err(FrameError::NoSuchColumn(_))
        ));
    }

    #[test]
    fn group_agg_rejects_float_keys_like_monolithic() {
        let mut seg = SegFrame::from_frame(sample(10), 4);
        assert!(matches!(
            seg.group_agg(&["watts"], &[("watts", Agg::Count)]),
            Err(FrameError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn empty_store_aggregates_to_empty_frame() {
        let mut seg = SegFrame::from_frame(sample(0), 4);
        let out = seg.group_agg(&["year"], &[("watts", Agg::Mean)]).unwrap();
        assert_eq!(out.n_rows(), 0);
        assert!(out.column("watts_mean").is_ok());
    }
}
