//! The per-layer ledger: an in-process replay of a workload's computation
//! in which every call into a leaf crate's public function is timed from
//! outside. Nothing inside the program is instrumented.
//!
//! The timed calls never nest, so each key's total is that layer's self
//! time; `timed / wall` is how much of the replay the ledger explains.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use spec_analysis::figures::common::extract_rows;
use spec_analysis::figures::{fig1, fig2, fig3, fig4, fig5, fig6};
use spec_analysis::pipeline::{stage2_split, FilterReport, ParseFailureRecord, RawInput};
use spec_analysis::stage::{
    decode_from_slice, encode_to_vec, part_key_of_text, ComparableArtifact, CorpusArtifact,
    DeriveArtifact, FilesArtifact, ValidateArtifact,
};
use spec_analysis::{correlation, proportionality, runs_to_frame, table1, AnalysisSet, Study};
use spec_format::{parse_run_interned_diagnosed, validate_interned, ValidityIssue};
use spec_model::RunResult;
use spec_synth::{for_each_scaled_batch, generate_dataset, SynthConfig};
use tinyframe::{SegFrame, SegmentStore, VfsSegmentStore, DEFAULT_SEGMENT_ROWS};

use crate::outcome::{unit_of, Outcome};
use crate::stats::median;

/// Accumulated layer times (ms) and counts of one or more replays.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Whether calls are timed (off for the overhead baseline).
    pub on: bool,
    /// Layer totals by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Sum of all timed calls.
    pub timed: Duration,
}

impl Ledger {
    /// A ledger that times (`on`) or only runs its calls.
    pub fn new(on: bool) -> Ledger {
        Ledger {
            on,
            ..Ledger::default()
        }
    }

    /// Run `f`, adding its wall time to layer `key` when tracing.
    pub fn time<T>(&mut self, key: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let took = start.elapsed();
        self.timed += took;
        *self.values.entry(key).or_default() += took.as_secs_f64() * 1e3;
        out
    }

    /// Add `ms` to `key` (time measured by a wrapper), counting it as timed.
    pub fn add_ms(&mut self, key: &'static str, ms: f64) {
        if self.on {
            self.timed += Duration::from_secs_f64(ms.max(0.0) / 1e3);
            *self.values.entry(key).or_default() += ms;
        }
    }

    /// Add to a counter.
    pub fn count(&mut self, key: &'static str, n: f64) {
        if self.on {
            *self.values.entry(key).or_default() += n;
        }
    }

    /// Print every layer per replay, then the ledger's coverage
    /// (`trace.untraced_frac`) and cost (`trace.overhead_frac`, traced
    /// against untimed replay walls, ms).
    pub fn report(&self, out: &mut Outcome, traced_walls: &[f64], plain_walls: &[f64], per: &str) {
        let reps = traced_walls.len() as f64;
        for (key, value) in &self.values {
            out.metric(key, unit_of(key), value / reps, per);
        }
        let wall: f64 = traced_walls.iter().sum();
        let untraced = 1.0 - self.timed.as_secs_f64() * 1e3 / wall;
        out.metric(
            "trace.untraced_frac",
            "ratio",
            untraced,
            "replay wall outside any timed call",
        );
        let (t, p) = (median(traced_walls), median(plain_walls));
        out.metric(
            "trace.overhead_frac",
            "ratio",
            (t - p) / p,
            "traced vs untimed replay, medians",
        );
        out.metric("trace.replays", "count", reps, "");
    }
}

/// What the replay of one `study_x1` session produced, for checking.
#[derive(Debug)]
pub struct SessionOut {
    /// Cascade accounting.
    pub report: FilterReport,
    /// The rendered figure SVGs.
    pub figures: Vec<(String, String)>,
    /// The rendered CSV exports.
    pub data: Vec<(String, String)>,
    /// Points fed to Figure 6's Theil–Sen fit.
    pub fig6_points: (Vec<f64>, Vec<f64>),
    /// Figure 6's robust trend, to cross-check the separate Theil–Sen probe.
    pub fig6_robust: Option<tinystats::TheilSen>,
}

fn read_corpus(dir: &Path, l: &mut Ledger) -> Result<CorpusArtifact, String> {
    let vfs = spec_vfs::default_vfs();
    let (items, bytes) = l.time("vfs.read_ms", || -> Result<_, String> {
        let mut paths = vfs
            .read_dir(dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        paths.retain(|p| p.extension().is_some_and(|e| e == "txt"));
        let mut bytes = 0usize;
        let mut items = Vec::with_capacity(paths.len());
        for path in &paths {
            let text = vfs
                .read_to_string(path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            bytes += text.len();
            let origin = path.file_name().map(|n| n.to_string_lossy().into_owned());
            items.push((origin, RawInput::Text(text)));
        }
        Ok((items, bytes))
    })?;
    l.count("vfs.files", items.len() as f64);
    l.count("vfs.bytes", bytes as f64);
    let corpus = CorpusArtifact { items };
    // Every `--data` step encodes the whole corpus to content-hash it.
    let payload = l.time("codec.encode_ms", || encode_to_vec(&corpus));
    l.count("codec.bytes", payload.len() as f64);
    Ok(corpus)
}

fn texts(corpus: &CorpusArtifact) -> Vec<(Option<&str>, &str)> {
    corpus
        .items
        .iter()
        .map(|(origin, input)| {
            let text = match input {
                RawInput::Text(t) => t.as_str(),
                _ => "",
            };
            (origin.as_deref(), text)
        })
        .collect()
}

/// Stage 1 (parse + validity) then stage 2 (comparability) over `items`,
/// accounted exactly as the pipeline's cascade does.
fn cascade(
    items: &[(Option<&str>, &str)],
    l: &mut Ledger,
) -> (Vec<RunResult>, Vec<u32>, FilterReport) {
    let parsed = l.time("format.parse_ms", || {
        items
            .iter()
            .map(|(_, text)| parse_run_interned_diagnosed(text))
            .collect::<Vec<_>>()
    });
    l.time("format.validate_ms", || {
        let mut report = FilterReport::default();
        let mut valid = Vec::new();
        for ((origin, _), parsed) in items.iter().zip(parsed) {
            let index = report.raw;
            report.raw += 1;
            match parsed {
                Err(failure) => {
                    report.not_reports += 1;
                    report.parse_failures.push(ParseFailureRecord {
                        index,
                        origin: origin.map(str::to_string),
                        failure,
                    });
                }
                Ok(p) => match validate_interned(&p) {
                    Ok(run) => valid.push(run),
                    Err(issues) => {
                        let first = issues.first().copied().unwrap_or(ValidityIssue::Malformed);
                        *report.stage1.entry(first).or_insert(0) += 1;
                    }
                },
            }
        }
        report.valid = valid.len();
        let (indices, stage2) = stage2_split(&valid);
        report.stage2 = stage2;
        report.comparable = indices.len();
        (valid, indices, report)
    })
}

/// The artifacts a cold `analyze` computes and caches.
struct Artifacts {
    validate: ValidateArtifact,
    comparable: ComparableArtifact,
    comparable_runs: Vec<RunResult>,
    figs: (
        fig1::Fig1Features,
        fig2::Fig2Power,
        fig3::Fig3Efficiency,
        fig4::Fig4Proportionality,
        fig5::Fig5Idle,
        fig6::Fig6Extrapolated,
    ),
    derive: DeriveArtifact,
}

impl Artifacts {
    fn encode(&self, l: &mut Ledger) -> Vec<Vec<u8>> {
        let out = l.time("codec.encode_ms", || {
            vec![
                encode_to_vec(&self.validate),
                encode_to_vec(&self.comparable),
                encode_to_vec(&self.figs.0),
                encode_to_vec(&self.figs.1),
                encode_to_vec(&self.figs.2),
                encode_to_vec(&self.figs.3),
                encode_to_vec(&self.figs.4),
                encode_to_vec(&self.figs.5),
                encode_to_vec(&self.derive),
            ]
        });
        l.count(
            "codec.bytes",
            out.iter().map(Vec::len).sum::<usize>() as f64,
        );
        out
    }

    fn decode(payloads: &[Vec<u8>], l: &mut Ledger) -> Result<Artifacts, String> {
        let e = |e: spec_analysis::stage::CodecError| e.to_string();
        let (validate, comparable, figs, derive) =
            l.time("codec.decode_ms", || -> Result<_, String> {
                let validate: ValidateArtifact = decode_from_slice(&payloads[0]).map_err(e)?;
                let comparable: ComparableArtifact = decode_from_slice(&payloads[1]).map_err(e)?;
                let figs = (
                    decode_from_slice(&payloads[2]).map_err(e)?,
                    decode_from_slice(&payloads[3]).map_err(e)?,
                    decode_from_slice(&payloads[4]).map_err(e)?,
                    decode_from_slice(&payloads[5]).map_err(e)?,
                    decode_from_slice(&payloads[6]).map_err(e)?,
                    decode_from_slice(&payloads[7]).map_err(e)?,
                );
                let derive: DeriveArtifact = decode_from_slice(&payloads[8]).map_err(e)?;
                Ok((validate, comparable, figs, derive))
            })?;
        let comparable_runs = comparable
            .indices
            .iter()
            .map(|&i| validate.valid[i as usize].clone())
            .collect();
        Ok(Artifacts {
            validate,
            comparable,
            comparable_runs,
            figs,
            derive,
        })
    }

    fn study(&self) -> Study {
        let mut report = self.validate.report.clone();
        report.stage2 = self.comparable.stage2.clone();
        report.comparable = self.comparable.indices.len();
        Study {
            set: AnalysisSet {
                valid: self.validate.valid.clone(),
                comparable: self.comparable_runs.clone(),
                report,
            },
            fig1: self.figs.0.clone(),
            fig2: self.figs.1.clone(),
            fig3: self.figs.2.clone(),
            fig4: self.figs.3.clone(),
            fig5: self.figs.4.clone(),
            fig6: self.figs.5.clone(),
            table1: self.derive.table1.clone(),
            correlation: self.derive.correlation.clone(),
            proportionality: self.derive.proportionality.clone(),
        }
    }
}

/// Replay the README session over the report files in `dir`: a cold
/// `analyze` (read, cascade, every reduce, Table I, encode), then warm
/// `figures` and `export` (read, decode, render, encode the output).
/// Cache file I/O and output writes are not replayed.
pub fn study_session(dir: &Path, seed: u64, l: &mut Ledger) -> Result<SessionOut, String> {
    // analyze (cold)
    let corpus = read_corpus(dir, l)?;
    let items = texts(&corpus);
    let (valid, indices, report) = cascade(&items, l);
    l.count("format.reports", report.raw as f64);
    l.count("format.valid", report.valid as f64);
    l.count("format.comparable", report.comparable as f64);
    let comparable_runs: Vec<RunResult> =
        indices.iter().map(|&i| valid[i as usize].clone()).collect();
    let (valid_rows, comp_rows) = l.time("figures.extract_ms", || {
        (extract_rows(&valid), extract_rows(&comparable_runs))
    });
    let f1 = l.time("figures.fig1_ms", || fig1::compute_rows(&valid_rows));
    let f2 = l.time("figures.fig2_ms", || fig2::compute_rows(&comp_rows));
    let f3 = l.time("figures.fig3_ms", || fig3::compute_rows(&comp_rows));
    let f4 = l.time("figures.fig4_ms", || fig4::compute_rows(&comp_rows));
    let f5 = l.time("figures.fig5_ms", || fig5::compute_rows(&comp_rows));
    let f6 = l.time("figures.fig6_ms", || fig6::compute_rows(&comp_rows));
    let settings = spec_ssj::Settings::default();
    let t1 = l.time("table1.compute_ms", || table1::compute(&settings, seed));
    let (corr, prop) = l.time("derive.other_ms", || {
        (
            correlation::explore(&comparable_runs, 2021),
            proportionality::ep_trend(&comparable_runs),
        )
    });
    let (stage2, stage1_report) = (report.stage2.clone(), {
        let mut r = report.clone();
        r.stage2.clear();
        r.comparable = 0;
        r
    });
    let cold = Artifacts {
        validate: ValidateArtifact {
            valid,
            report: stage1_report,
        },
        comparable: ComparableArtifact { indices, stage2 },
        comparable_runs,
        figs: (f1, f2, f3, f4, f5, f6),
        derive: DeriveArtifact {
            table1: t1,
            correlation: corr,
            proportionality: prop,
        },
    };
    let payloads = cold.encode(l);
    let fig6_points = {
        let pts: Vec<(f64, f64)> = cold
            .figs
            .5
            .scatter
            .iter()
            .flat_map(|(_, p)| p.clone())
            .collect();
        (
            pts.iter().map(|p| p.0).collect(),
            pts.iter().map(|p| p.1).collect(),
        )
    };
    let fig6_robust = cold.figs.5.robust_trend;
    drop(cold);

    // figures (warm)
    read_corpus(dir, l)?;
    let warm = Artifacts::decode(&payloads, l)?;
    let figures = l.time("plot.render_ms", || warm.study().figure_files());
    let files = FilesArtifact { files: figures };
    let payload = l.time("codec.encode_ms", || encode_to_vec(&files));
    l.count("codec.bytes", payload.len() as f64);
    let figures = files.files;

    // export (warm)
    read_corpus(dir, l)?;
    let warm = Artifacts::decode(&payloads, l)?;
    let study = warm.study();
    let data = l.time("export.csv_ms", || study.data_files());
    l.count(
        "export.bytes",
        data.iter().map(|(_, c)| c.len()).sum::<usize>() as f64,
    );
    let files = FilesArtifact { files: data };
    let payload = l.time("codec.encode_ms", || encode_to_vec(&files));
    l.count("codec.bytes", payload.len() as f64);

    Ok(SessionOut {
        report: study.set.report,
        figures,
        data: files.files,
        fig6_points,
        fig6_robust,
    })
}

/// A spill store that times its writes from outside `SegFrame`.
#[derive(Debug)]
struct TimedStore {
    inner: VfsSegmentStore,
    nanos: Arc<AtomicU64>,
}

impl SegmentStore for TimedStore {
    fn store(&self, id: u64, payload: &[u8]) -> std::io::Result<()> {
        let start = Instant::now();
        let out = self.inner.store(id, payload);
        self.nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    fn load(&self, id: u64) -> std::io::Result<Vec<u8>> {
        self.inner.load(id)
    }

    fn remove(&self, id: u64) {
        self.inner.remove(id)
    }
}

/// What the replay of one streaming ingest produced, for checking.
#[derive(Debug)]
pub struct IngestOut {
    /// Cascade accounting.
    pub report: FilterReport,
}

/// Replay `ingest --scale K --max-resident-mb M`: generate the base corpus,
/// stream its ×K replication in 4096-report batches through partition
/// keying, the cascade and the two spilling segment stores.
pub fn ingest_stream(
    seed: u64,
    scale: u32,
    max_resident_mb: usize,
    spill_dir: &Path,
    l: &mut Ledger,
) -> Result<IngestOut, String> {
    const BATCH: usize = 4096;
    let io = |e: std::io::Error| e.to_string();
    let fe = |e: tinyframe::FrameError| e.to_string();
    let base = l.time("synth.generate_ms", || {
        generate_dataset(&SynthConfig {
            seed,
            ..SynthConfig::default()
        })
    });
    let spill_nanos = Arc::new(AtomicU64::new(0));
    let budget = max_resident_mb * 1024 * 1024;
    let mut stores = Vec::new();
    for (name, share) in [
        ("valid", budget / 5 * 3),
        ("comparable", budget - budget / 5 * 3),
    ] {
        let mut frame = SegFrame::new(DEFAULT_SEGMENT_ROWS);
        frame.append_frame(runs_to_frame(&[])).map_err(fe)?;
        let inner = VfsSegmentStore::open_default(spill_dir.join(name)).map_err(io)?;
        let store = TimedStore {
            inner,
            nanos: spill_nanos.clone(),
        };
        frame.enable_spill(Arc::new(store), share).map_err(fe)?;
        stores.push(frame);
    }
    let mut report = FilterReport::default();
    let mut last = Instant::now();
    let mut replicate = Duration::ZERO;
    for_each_scaled_batch(&base, scale, BATCH, |batch| -> Result<(), String> {
        replicate += last.elapsed();
        let keys = l.time("partition.key_ms", || {
            batch
                .iter()
                .map(|t| part_key_of_text(t))
                .collect::<Vec<_>>()
        });
        std::hint::black_box(&keys);
        let items: Vec<(Option<&str>, &str)> = batch.iter().map(|t| (None, t.as_str())).collect();
        let (valid, indices, batch_report) = cascade(&items, l);
        report.merge(&batch_report);
        let comparable: Vec<RunResult> =
            indices.iter().map(|&i| valid[i as usize].clone()).collect();
        let spill_before = spill_nanos.load(Ordering::Relaxed);
        let appended = Instant::now();
        for (frame, runs) in stores.iter_mut().zip([&valid, &comparable]) {
            for chunk in runs.chunks(DEFAULT_SEGMENT_ROWS) {
                frame.append_frame(runs_to_frame(chunk)).map_err(fe)?;
            }
        }
        let total_ms = appended.elapsed().as_secs_f64() * 1e3;
        let spill_ms = (spill_nanos.load(Ordering::Relaxed) - spill_before) as f64 / 1e6;
        l.add_ms("frame.spill_ms", spill_ms);
        l.add_ms("frame.append_ms", total_ms - spill_ms);
        last = Instant::now();
        Ok(())
    })?;
    l.add_ms("synth.replicate_ms", replicate.as_secs_f64() * 1e3);
    l.count("format.reports", report.raw as f64);
    l.count("format.valid", report.valid as f64);
    l.count("format.comparable", report.comparable as f64);
    let segments_spilled: usize = stores.iter().map(SegFrame::segments_spilled).sum();
    let spill_bytes: u64 = stores.iter().map(SegFrame::spill_bytes_written).sum();
    l.count("frame.segments_spilled", segments_spilled as f64);
    l.count("frame.spill_bytes", spill_bytes as f64);
    Ok(IngestOut { report })
}
