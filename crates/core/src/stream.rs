//! Streaming batched ingest: the out-of-core path past the ×100 memory wall.
//!
//! [`crate::pipeline::load_from_texts`] holds every report text, every
//! parsed [`RunResult`] and (downstream) the whole feature frame in memory
//! at once, which is what capped corpus scaling near ×100. This module
//! ingests the corpus in bounded batches instead. Each batch goes through
//! the one sharded §II kernel ([`crate::pipeline`]); a per-shard sink runs
//! on the pool worker and the kernel merges shard outputs in shard order.
//! There are two sinks over one shared accumulator:
//!
//! * [`StreamIngest`] renders survivors into segment-sized feature frames
//!   adopted into two [`SegFrame`] stores (stage-1-valid and comparable
//!   runs). With spill enabled the stores size their segments from the
//!   budget and evict cold ones through `spec-vfs`, so peak memory is the
//!   batch in flight plus the budget regardless of corpus scale.
//! * [`StreamRows`] routes every survivor's [`RunRow`] to its (year,
//!   vendor) partition — the serve daemon's out-of-core snapshot build.
//!
//! [`for_each_corpus_batch`] is the one batch reader over a
//! [`CorpusSource`] that feeds either sink.
//!
//! Correctness contract: ingesting any batch split of a corpus at any
//! thread count produces a [`FilterReport`] and sink output
//! **bit-identical** to the sequential [`crate::pipeline::load_from_inputs`]
//! reference (+ [`crate::features::runs_to_frame`] or
//! [`extract_rows`]). This holds because stage 1 is per-input, stage 2 is
//! per-run, and [`FilterReport::merge`] is associative with index
//! offsetting.

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

use spec_model::RunResult;
use spec_vfs::Vfs;
use tinyframe::{Frame, SegFrame, VfsSegmentStore, DEFAULT_SEGMENT_ROWS};

use crate::features::runs_to_frame;
use crate::figures::common::{extract_rows, RunRow};
use crate::pipeline::{
    input_ref, list_report_files, read_inputs_shared, select, sharded_cascade, text_ref,
    FilterReport, InputRef, RawInput, RawInputRef, ShardCascade,
};
use crate::stage::{part_key_of_text, CorpusSource, PartKey};

/// Spill configuration for [`StreamIngest`].
#[derive(Clone, Debug)]
pub struct SpillConfig {
    /// Directory for spilled segments; `valid/` and `comparable/` subdirs
    /// are created beneath it.
    pub dir: PathBuf,
    /// Combined memory budget across both feature stores, covering each
    /// store's resident sealed segments, open tail and spill buffer (see
    /// [`SegFrame::enable_spill`]).
    pub max_resident_bytes: usize,
}

/// Configuration for [`StreamIngest`].
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Cap on rows per sealed segment in the feature stores. A spilling
    /// store seals sooner, at a quarter of its budget share.
    pub segment_rows: usize,
    /// Spill cold segments through `spec-vfs` when set; otherwise every
    /// segment stays resident.
    pub spill: Option<SpillConfig>,
}

impl Default for StreamConfig {
    fn default() -> StreamConfig {
        StreamConfig {
            segment_rows: DEFAULT_SEGMENT_ROWS,
            spill: None,
        }
    }
}

/// Hand `f` the corpus of `source` in consecutive batches of at most
/// `batch` borrowed inputs, in corpus order — the one batch reader behind
/// `spec-trends ingest` and the serve daemon's streaming snapshot build.
///
/// * `Synthetic` streams the corpus replicated `scale`×
///   ([`spec_synth::for_each_scaled_batch`]) without materializing it.
/// * `Dir` lists the sorted `*.txt` files and reads each batch into one
///   slab arena ([`read_inputs_shared`]). An unreadable directory is an
///   error; an unreadable file arrives as an `IoError` input.
/// * `Memory` borrows the in-memory `(origin, text)` pairs.
///
/// `scale` applies to `Synthetic` only.
pub fn for_each_corpus_batch<F>(
    source: &CorpusSource,
    scale: u32,
    vfs: &dyn Vfs,
    batch: usize,
    mut f: F,
) -> spec_diag::Result<()>
where
    F: FnMut(&[InputRef<'_>]) -> spec_diag::Result<()>,
{
    let batch = batch.max(1);
    match source {
        CorpusSource::Synthetic(synth) => {
            let base = spec_synth::generate_dataset(synth);
            spec_synth::for_each_scaled_batch(&base, scale.max(1), batch, |texts| {
                f(&texts.iter().map(text_ref).collect::<Vec<_>>())
            })
        }
        CorpusSource::Dir(dir) => {
            list_report_files(vfs, dir)?
                .chunks(batch)
                .try_for_each(|paths| {
                    let items = read_inputs_shared(vfs, paths);
                    f(&items.iter().map(input_ref).collect::<Vec<_>>())
                })
        }
        CorpusSource::Memory(items) => items.chunks(batch).try_for_each(|chunk| {
            f(&chunk
                .iter()
                .map(|(origin, text)| (origin.as_deref(), RawInputRef::Text(text)))
                .collect::<Vec<_>>())
        }),
    }
}

/// The state [`StreamIngest`] and [`StreamRows`] share: the merged report
/// and the batch count. `report.raw` is the global corpus index of the
/// next batch's first input.
#[derive(Debug, Default)]
struct Accumulator {
    report: FilterReport,
    batches: usize,
}

impl Accumulator {
    /// Cascade one batch through the sharded kernel and fold its report
    /// in. Returns the batch's global index base and the per-shard
    /// outputs, in shard order.
    fn push<R, F>(&mut self, items: &[InputRef<'_>], per_shard: F) -> (u32, Vec<R>)
    where
        R: Send,
        F: Fn(ShardCascade<'_, '_>) -> R + Sync,
    {
        let base = self.report.raw as u32;
        let (report, shards) = sharded_cascade(items, per_shard);
        self.report.merge(&report);
        self.batches += 1;
        (base, shards)
    }
}

/// Incremental ingest state: push batches of report texts, read off the
/// accumulated [`FilterReport`] and segmented feature tables at any point.
#[derive(Debug)]
pub struct StreamIngest {
    valid: SegFrame,
    comparable: SegFrame,
    acc: Accumulator,
}

fn frame_to_io(err: tinyframe::FrameError) -> io::Error {
    io::Error::other(err)
}

impl StreamIngest {
    /// Fresh ingest state. Creates the spill directories when spill is
    /// configured; the valid store gets the larger slice (3/5) of the
    /// budget since every comparable run is also valid.
    pub fn new(config: &StreamConfig) -> io::Result<StreamIngest> {
        let segment_rows = config.segment_rows.max(1);
        let mut valid = SegFrame::new(segment_rows);
        let mut comparable = SegFrame::new(segment_rows);
        // Adopt the feature schema up front so an all-rejected corpus
        // still renders the same header row as the monolithic path.
        valid
            .append_frame(runs_to_frame(&[]))
            .map_err(frame_to_io)?;
        comparable
            .append_frame(runs_to_frame(&[]))
            .map_err(frame_to_io)?;
        if let Some(spill) = &config.spill {
            let valid_store = VfsSegmentStore::open_default(spill.dir.join("valid"))?;
            let comp_store = VfsSegmentStore::open_default(spill.dir.join("comparable"))?;
            let valid_budget = spill.max_resident_bytes / 5 * 3;
            let comp_budget = spill.max_resident_bytes.saturating_sub(valid_budget);
            valid
                .enable_spill(Arc::new(valid_store), valid_budget)
                .map_err(frame_to_io)?;
            comparable
                .enable_spill(Arc::new(comp_store), comp_budget)
                .map_err(frame_to_io)?;
        }
        Ok(StreamIngest {
            valid,
            comparable,
            acc: Accumulator::default(),
        })
    }

    /// Ingest one batch of report texts.
    pub fn push_batch<S>(&mut self, texts: &[S]) -> tinyframe::Result<()>
    where
        S: AsRef<str> + Sync,
    {
        self.push(&texts.iter().map(text_ref).collect::<Vec<_>>())
    }

    /// [`Self::push_batch`] over owned `(origin, input)` pairs — the
    /// directory-ingest form, where an unreadable file arrives as an
    /// [`RawInput::IoError`] and is accounted as an `io-error` parse
    /// failure instead of aborting the stream.
    pub fn push_input_batch(
        &mut self,
        items: &[(Option<String>, RawInput)],
    ) -> tinyframe::Result<()> {
        self.push(&items.iter().map(input_ref).collect::<Vec<_>>())
    }

    /// Ingest one batch of borrowed inputs (the form
    /// [`for_each_corpus_batch`] yields). Each shard renders its survivors
    /// into segment-sized feature frames on its pool worker; the frames
    /// are adopted in shard order, so the stores are identical for any
    /// batch split and any thread count.
    pub fn push(&mut self, items: &[InputRef<'_>]) -> tinyframe::Result<()> {
        let segment_rows = self.valid.segment_rows();
        let arena = |runs: &[RunResult]| -> Vec<Frame> {
            runs.chunks(segment_rows).map(runs_to_frame).collect()
        };
        let (_, shards) = self.acc.push(items, |shard| {
            let comparable = select(&shard.valid, &shard.comparable);
            (arena(&shard.valid), arena(&comparable))
        });
        for (valid, comparable) in shards {
            for frame in valid {
                self.valid.append_frame(frame)?;
            }
            for frame in comparable {
                self.comparable.append_frame(frame)?;
            }
        }
        Ok(())
    }

    /// Accumulated filter accounting over every batch so far.
    pub fn report(&self) -> &FilterReport {
        &self.acc.report
    }

    /// Number of batches ingested.
    pub fn batches(&self) -> usize {
        self.acc.batches
    }

    /// The segmented feature table of stage-1-valid runs.
    pub fn valid_features(&mut self) -> &mut SegFrame {
        &mut self.valid
    }

    /// The segmented feature table of comparable runs.
    pub fn comparable_features(&mut self) -> &mut SegFrame {
        &mut self.comparable
    }

    /// Tear down into `(valid, comparable, report)`.
    pub fn into_parts(self) -> (SegFrame, SegFrame, FilterReport) {
        (self.valid, self.comparable, self.acc.report)
    }
}

/// Per-(year, vendor) partition cascade counts accumulated by
/// [`StreamRows`]. The same key derivation as the partitioned stage graph
/// ([`part_key_of_text`]), so a streamed corpus can be checked against
/// [`crate::stage::PartitionedDriver::partition_summary`]
/// partition-for-partition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamPartitionCounts {
    /// Raw inputs routed to the partition.
    pub raw: usize,
    /// Stage-1 survivors.
    pub valid: usize,
    /// Stage-2 survivors.
    pub comparable: usize,
}

impl StreamPartitionCounts {
    fn merge(&mut self, other: &StreamPartitionCounts) {
        self.raw += other.raw;
        self.valid += other.valid;
        self.comparable += other.comparable;
    }
}

/// One routed stage-1 survivor: `(partition key, index, comparable, row)`.
type Routed = (PartKey, u32, bool, RunRow);

/// The row sink's per-shard half: the partition key of every shard input,
/// the shard's per-partition counts, and each valid run routed with its
/// batch-local input index. Routing is per input, so shard and batch
/// merging stay associative.
fn route_rows(
    shard: ShardCascade<'_, '_>,
) -> (BTreeMap<PartKey, StreamPartitionCounts>, Vec<Routed>) {
    let keys: Vec<PartKey> = shard
        .inputs
        .iter()
        .map(|(_, input)| match input {
            RawInputRef::Text(text) => part_key_of_text(text),
            RawInputRef::IoError(_) => PartKey::UNKNOWN,
        })
        .collect();
    let mut partitions: BTreeMap<PartKey, StreamPartitionCounts> = BTreeMap::new();
    for key in &keys {
        partitions.entry(*key).or_default().raw += 1;
    }
    let mut comparable = vec![false; shard.valid.len()];
    for &i in &shard.comparable {
        comparable[i as usize] = true;
    }
    let start = shard.start as u32;
    let routed = extract_rows(&shard.valid)
        .into_iter()
        .zip(comparable)
        .zip(&shard.input_index)
        .map(|((row, comp), &input)| {
            let key = keys[input as usize];
            let counts = partitions.entry(key).or_default();
            counts.valid += 1;
            counts.comparable += usize::from(comp);
            (key, start + input, comp, row)
        })
        .collect();
    (partitions, routed)
}

/// Streaming [`RunRow`] cascade: push batches of reports, receive every
/// stage-1 survivor as a `(partition key, global corpus index, comparable,
/// row)` tuple through a sink, and read off the accumulated
/// [`FilterReport`] and per-partition counts at any point. This is how a
/// serve snapshot ingests a `--scale 100` corpus without ever holding the
/// texts, the parsed [`RunResult`]s or a merged row vector in memory —
/// the sink appends straight into an out-of-core row store.
///
/// Same correctness contract as [`StreamIngest`]: any batch split at any
/// thread count yields the identical report, and the emitted tuples arrive
/// in global-index order, reproducing the partitioned driver's merged row
/// order exactly (pinned by tests below).
#[derive(Debug, Default)]
pub struct StreamRows {
    acc: Accumulator,
    partitions: BTreeMap<PartKey, StreamPartitionCounts>,
}

impl StreamRows {
    /// Fresh cascade state.
    pub fn new() -> StreamRows {
        StreamRows::default()
    }

    /// Ingest one batch of borrowed inputs, emitting each valid run's
    /// routed row through `sink`. Shards derive partition keys and route
    /// rows on their pool workers; emission follows shard order, so
    /// emission order and global indices are identical for any batch
    /// split and thread count.
    pub fn push<E>(
        &mut self,
        items: &[InputRef<'_>],
        mut sink: impl FnMut(PartKey, u32, bool, RunRow) -> Result<(), E>,
    ) -> Result<(), E> {
        let (base, shards) = self.acc.push(items, route_rows);
        for (partitions, routed) in shards {
            for (key, counts) in &partitions {
                self.partitions.entry(*key).or_default().merge(counts);
            }
            for (key, local, comp, row) in routed {
                sink(key, base + local, comp, row)?;
            }
        }
        Ok(())
    }

    /// Accumulated filter accounting over every batch so far.
    pub fn report(&self) -> &FilterReport {
        &self.acc.report
    }

    /// Accumulated per-(year, vendor) cascade counts. Sums across
    /// partitions equal the corresponding [`Self::report`] totals for any
    /// batch split and thread count.
    pub fn partition_counts(&self) -> &BTreeMap<PartKey, StreamPartitionCounts> {
        &self.partitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{load_from_dir, load_from_inputs, load_from_texts};
    use crate::stage::PartitionedDriver;
    use spec_format::write_run;
    use spec_model::{linear_test_run, YearMonth};
    use std::convert::Infallible;
    use tinypool::Pool;

    /// Clean reports spread over five hardware years and both x86
    /// vendors, with a non-report at 3 and a stage-2 (non-x86) reject at
    /// 11, so every counter and several partitions are exercised.
    fn corpus(n: u32) -> Vec<String> {
        (0..n)
            .map(|i| match i {
                3 => "junk that is not a report".to_string(),
                11 => {
                    let mut sparc = linear_test_run(999, 1e6, 60.0, 300.0);
                    sparc.system.cpu.name = "SPARC T3-1".into();
                    write_run(&sparc)
                }
                _ => {
                    let mut run = linear_test_run(
                        i,
                        1e6 + f64::from(i) * 1e3,
                        50.0 + f64::from(i % 7),
                        300.0,
                    );
                    run.dates.hw_available = YearMonth::new(2012 + (i % 5) as i32, 3).unwrap();
                    if i % 2 == 0 {
                        run.system.cpu.name = format!("AMD EPYC {}", 7000 + i);
                    }
                    write_run(&run)
                }
            })
            .collect()
    }

    fn views(items: &[(Option<String>, RawInput)]) -> Vec<InputRef<'_>> {
        items.iter().map(input_ref).collect()
    }

    /// Both sinks × both input forms × batch sizes 1, 7 and whole-corpus ×
    /// 1, 2 and 8 threads: every case reproduces the sequential
    /// `load_from_inputs` reference exactly.
    #[test]
    fn every_sink_form_split_and_pool_matches_the_sequential_reference() {
        let texts = corpus(40);
        let plain: Vec<(Option<String>, RawInput)> = texts
            .iter()
            .map(|t| (None, RawInput::Text(t.clone())))
            .collect();
        // Named inputs with unreadable files interleaved, first and last.
        let mut named: Vec<(Option<String>, RawInput)> = texts
            .iter()
            .enumerate()
            .map(|(i, t)| (Some(format!("r{i:02}.txt")), RawInput::Text(t.clone())))
            .collect();
        for at in [0, 9, 25, named.len()] {
            named.insert(
                at,
                (
                    Some(format!("gone{at}.txt")),
                    RawInput::IoError("could not read file: EIO".into()),
                ),
            );
        }
        for (form, items) in [("texts", &plain), ("inputs", &named)] {
            let reference = load_from_inputs(items.clone());
            let want_valid = runs_to_frame(&reference.valid).to_csv();
            let want_comp = runs_to_frame(&reference.comparable).to_csv();
            let want_rows = extract_rows(&reference.valid);
            let want_comp_rows = extract_rows(&reference.comparable);
            for batch in [1, 7, items.len()] {
                for threads in [1, 2, 8] {
                    let case = format!("{form} batch={batch} threads={threads}");
                    Pool::new(threads).install(|| {
                        let mut ingest = StreamIngest::new(&StreamConfig {
                            segment_rows: 4,
                            spill: None,
                        })
                        .unwrap();
                        for chunk in items.chunks(batch) {
                            if form == "texts" {
                                let texts: Vec<&str> = chunk
                                    .iter()
                                    .map(|(_, input)| match input {
                                        RawInput::Text(t) => t.as_str(),
                                        other => panic!("texts form holds {other:?}"),
                                    })
                                    .collect();
                                ingest.push_batch(&texts).unwrap();
                            } else {
                                ingest.push_input_batch(chunk).unwrap();
                            }
                        }
                        assert_eq!(ingest.report(), &reference.report, "{case}");
                        assert_eq!(ingest.batches(), items.len().div_ceil(batch), "{case}");
                        assert_eq!(
                            ingest.valid_features().to_csv().unwrap(),
                            want_valid,
                            "{case}"
                        );
                        assert_eq!(
                            ingest.comparable_features().to_csv().unwrap(),
                            want_comp,
                            "{case}"
                        );

                        let mut rows = StreamRows::new();
                        let mut tagged: Vec<(u32, bool, RunRow)> = Vec::new();
                        for chunk in items.chunks(batch) {
                            rows.push::<Infallible>(&views(chunk), |_, gidx, comp, row| {
                                tagged.push((gidx, comp, row));
                                Ok(())
                            })
                            .unwrap();
                        }
                        assert_eq!(rows.report(), &reference.report, "{case}");
                        assert!(
                            tagged.windows(2).all(|w| w[0].0 < w[1].0),
                            "{case}: rows arrive in global-index order"
                        );
                        let valid: Vec<RunRow> = tagged.iter().map(|t| t.2).collect();
                        let comparable: Vec<RunRow> =
                            tagged.iter().filter(|t| t.1).map(|t| t.2).collect();
                        assert_eq!(valid, want_rows, "{case}");
                        assert_eq!(comparable, want_comp_rows, "{case}");
                    });
                }
            }
        }
    }

    /// The row cascade's partition counts are split-invariant, sum to the
    /// cascade totals, and agree with the partitioned stage graph — as do
    /// its report and merged row order.
    #[test]
    fn row_cascade_partitions_and_rows_match_the_stage_graph() {
        let texts = corpus(40);
        let source =
            CorpusSource::Memory(texts.iter().map(|t| (None, t.clone())).collect::<Vec<_>>());
        let mut driver = PartitionedDriver::new(source.clone(), spec_ssj::Settings::fast(), 7);
        let merged = driver.merged().unwrap();
        let report = driver.filter_report().unwrap();
        let summary = driver.partition_summary().unwrap();

        let mut reference = None;
        for batch in [1usize, 7, 40] {
            let mut stream = StreamRows::new();
            let mut tagged: Vec<(u32, bool, RunRow)> = Vec::new();
            for_each_corpus_batch(&source, 1, &spec_vfs::RealVfs, batch, |items| {
                stream
                    .push::<Infallible>(items, |_, gidx, comp, row| {
                        tagged.push((gidx, comp, row));
                        Ok(())
                    })
                    .map_err(|never| match never {})
            })
            .unwrap();
            assert_eq!(stream.report(), &report, "batch={batch}");
            let valid: Vec<RunRow> = tagged.iter().map(|t| t.2).collect();
            let comparable: Vec<RunRow> = tagged.iter().filter(|t| t.1).map(|t| t.2).collect();
            assert_eq!(valid, merged.valid_rows, "batch={batch}");
            assert_eq!(comparable, merged.comparable_rows, "batch={batch}");

            let counts = stream.partition_counts().clone();
            assert_eq!(counts.values().map(|c| c.raw).sum::<usize>(), report.raw);
            assert_eq!(
                counts.values().map(|c| c.valid).sum::<usize>(),
                report.valid
            );
            assert_eq!(
                counts.values().map(|c| c.comparable).sum::<usize>(),
                report.comparable
            );
            match &reference {
                None => reference = Some(counts),
                Some(want) => assert_eq!(&counts, want, "batch={batch}"),
            }
        }
        let want = reference.unwrap();
        assert!(want.len() > 1, "the corpus spans several partitions");
        assert_eq!(summary.len(), want.len());
        for part in summary {
            let counts = want.get(&part.key).expect("partition present");
            assert_eq!(counts.raw, part.reports, "{}", part.key.label());
            assert_eq!(counts.valid, part.valid, "{}", part.key.label());
            assert_eq!(counts.comparable, part.comparable, "{}", part.key.label());
        }
    }

    #[test]
    fn dir_batches_match_the_directory_loader() {
        let dir = std::env::temp_dir().join(format!("spec_stream_dir_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for (i, text) in corpus(13).iter().enumerate() {
            std::fs::write(dir.join(format!("r{i:02}.txt")), text).unwrap();
        }
        std::fs::write(dir.join("notes.md"), "not a report file").unwrap();
        let mut ingest = StreamIngest::new(&StreamConfig::default()).unwrap();
        let source = CorpusSource::Dir(dir.clone());
        for_each_corpus_batch(&source, 1, &spec_vfs::RealVfs, 5, |items| {
            ingest
                .push(items)
                .map_err(|e| spec_diag::TrendsError::config("test", e.to_string()))
        })
        .unwrap();
        let legacy = load_from_dir(&dir).unwrap();
        assert_eq!(ingest.batches(), 3);
        assert_eq!(ingest.report(), &legacy.report);
        assert_eq!(
            ingest.report().parse_failures[0].origin.as_deref(),
            Some("r03.txt")
        );
        assert_eq!(
            ingest.valid_features().to_csv().unwrap(),
            runs_to_frame(&legacy.valid).to_csv()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn all_rejected_corpus_keeps_schema() {
        let mut ingest = StreamIngest::new(&StreamConfig {
            segment_rows: 8,
            spill: None,
        })
        .unwrap();
        ingest.push_batch(&["junk", "more junk"]).unwrap();
        let legacy = load_from_texts(&["junk".to_string(), "more junk".to_string()]);
        assert_eq!(ingest.report(), &legacy.report);
        assert_eq!(
            ingest.valid_features().to_csv().unwrap(),
            runs_to_frame(&[]).to_csv()
        );
    }

    #[test]
    fn stream_rows_sink_errors_propagate() {
        let texts = corpus(10);
        let mut stream = StreamRows::new();
        let err = stream
            .push(
                &texts.iter().map(text_ref).collect::<Vec<_>>(),
                |_, _, _, _| Err("sink full"),
            )
            .unwrap_err();
        assert_eq!(err, "sink full");
    }

    /// The CLI's shape — the 64Ki-row `DEFAULT_SEGMENT_ROWS` cap with a
    /// small byte budget — spills at test scale, because a spilling
    /// store sizes its segments from the budget. Every batch split at
    /// every thread count stays within the budget plus one segment per
    /// store after every batch and yields the same features, report and
    /// segment boundaries.
    #[test]
    fn cli_shaped_budget_spills_and_is_split_and_thread_invariant() {
        let texts = corpus(60);
        let legacy = load_from_texts(&texts);
        let want_valid = runs_to_frame(&legacy.valid).to_csv();
        let want_comp = runs_to_frame(&legacy.comparable).to_csv();
        let budget = 8 * 1024;
        let row: usize = runs_to_frame(&[])
            .columns_iter()
            .map(|c| c.dtype().cell_bytes())
            .sum();
        let bound = budget + budget / 4 + 2 * row;
        let boundaries = |seg: &mut SegFrame| {
            let mut rows = Vec::new();
            seg.for_each_segment(|s| {
                rows.push(s.n_rows());
                Ok(())
            })
            .unwrap();
            rows
        };
        let mut reference = None;
        for batch in [1, 7, texts.len()] {
            for threads in [1, 2, 8] {
                let case = format!("batch={batch} threads={threads}");
                let dir = std::env::temp_dir().join(format!(
                    "spec_stream_cli_budget_{}_{batch}_{threads}",
                    std::process::id()
                ));
                let _ = std::fs::remove_dir_all(&dir);
                Pool::new(threads).install(|| {
                    let mut ingest = StreamIngest::new(&StreamConfig {
                        segment_rows: DEFAULT_SEGMENT_ROWS,
                        spill: Some(SpillConfig {
                            dir: dir.clone(),
                            max_resident_bytes: budget,
                        }),
                    })
                    .unwrap();
                    for chunk in texts.chunks(batch) {
                        ingest.push_batch(chunk).unwrap();
                        let held = ingest.valid_features().occupied_bytes()
                            + ingest.comparable_features().occupied_bytes();
                        assert!(held <= bound, "{case}: {held} > {bound}");
                    }
                    assert!(ingest.valid_features().segments_spilled() > 0, "{case}");
                    assert!(
                        ingest.comparable_features().segments_spilled() > 0,
                        "{case}"
                    );
                    assert_eq!(ingest.report(), &legacy.report, "{case}");
                    assert_eq!(
                        ingest.valid_features().to_csv().unwrap(),
                        want_valid,
                        "{case}"
                    );
                    assert_eq!(
                        ingest.comparable_features().to_csv().unwrap(),
                        want_comp,
                        "{case}"
                    );
                    let got = (
                        boundaries(ingest.valid_features()),
                        boundaries(ingest.comparable_features()),
                    );
                    assert!(got.0.len() > 2, "{case}: segments follow the budget");
                    match &reference {
                        None => reference = Some(got),
                        Some(want) => assert_eq!(&got, want, "{case}"),
                    }
                });
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }

    #[test]
    fn spilling_stream_is_identical_and_bounded() {
        let texts = corpus(60);
        let legacy = load_from_texts(&texts);
        let dir = std::env::temp_dir().join("spec_stream_spill_test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut ingest = StreamIngest::new(&StreamConfig {
            segment_rows: 8,
            spill: Some(SpillConfig {
                dir: dir.clone(),
                max_resident_bytes: 4096,
            }),
        })
        .unwrap();
        for chunk in texts.chunks(9) {
            ingest.push_batch(chunk).unwrap();
        }
        assert!(
            ingest.valid_features().segments_spilled() > 0,
            "a 4 KiB budget must force spill"
        );
        assert_eq!(
            ingest.valid_features().to_csv().unwrap(),
            runs_to_frame(&legacy.valid).to_csv()
        );
        assert_eq!(
            ingest.comparable_features().to_csv().unwrap(),
            runs_to_frame(&legacy.comparable).to_csv()
        );
        assert_eq!(ingest.report(), &legacy.report);
        drop(ingest);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
