//! What one run reports: operation counts, the named metrics, provenance,
//! and the final JSON line.

use std::fmt::Write as _;
use std::path::Path;

use crate::Ctx;

/// End-to-end metrics `(name, unit)`, reported by every workload with
/// tracing off. Their per-workload meaning is tabled in `NOTES.md`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer ledger `(name, unit)`, reported by every workload with
/// tracing on. A layer the workload never calls reads 0. The `serve_x10`
/// ledger (client timings, `/stats` deltas) is printed, not exported: that
/// workload is not in `BENCHMARK.json` (see `NOTES.md`).
pub const PER_LAYER: [(&str, &str); 39] = [
    ("format.parse_ms", "ms"),
    ("format.validate_ms", "ms"),
    ("format.reports", "count"),
    ("format.valid", "count"),
    ("format.comparable", "count"),
    ("partition.key_ms", "ms"),
    ("vfs.read_ms", "ms"),
    ("vfs.files", "count"),
    ("vfs.bytes", "bytes"),
    ("figures.extract_ms", "ms"),
    ("figures.fig1_ms", "ms"),
    ("figures.fig2_ms", "ms"),
    ("figures.fig3_ms", "ms"),
    ("figures.fig4_ms", "ms"),
    ("figures.fig5_ms", "ms"),
    ("figures.fig6_ms", "ms"),
    ("stats.theil_sen_ms", "ms"),
    ("stats.theil_sen_points", "count"),
    ("table1.compute_ms", "ms"),
    ("derive.other_ms", "ms"),
    ("codec.encode_ms", "ms"),
    ("codec.decode_ms", "ms"),
    ("codec.bytes", "bytes"),
    ("plot.render_ms", "ms"),
    ("export.csv_ms", "ms"),
    ("export.bytes", "bytes"),
    ("synth.generate_ms", "ms"),
    ("synth.replicate_ms", "ms"),
    ("frame.append_ms", "ms"),
    ("frame.spill_ms", "ms"),
    ("frame.spill_bytes", "bytes"),
    ("frame.segments_spilled", "count"),
    ("cli.analyze_ms", "ms"),
    ("cli.figures_ms", "ms"),
    ("cli.export_ms", "ms"),
    ("cli.ingest_ms", "ms"),
    ("trace.untraced_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.replays", "count"),
];

/// The unit of a per-layer metric.
pub fn unit_of(key: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == key)
        .map_or("ms", |(_, u)| *u)
}

/// Collected results of one run.
#[derive(Debug)]
pub struct Outcome {
    workload: String,
    trace: bool,
    attempted: u64,
    failed: u64,
    invalid: Vec<String>,
    errors_shown: usize,
    metrics: Vec<(String, f64)>,
}

const MAX_ERRORS_SHOWN: usize = 20;

impl Outcome {
    /// Empty outcome for `workload`.
    pub fn new(workload: &str, trace: bool) -> Outcome {
        Outcome {
            workload: workload.to_string(),
            trace,
            attempted: 0,
            failed: 0,
            invalid: Vec::new(),
            errors_shown: 0,
            metrics: Vec::new(),
        }
    }

    /// Count one attempted operation; `error` marks it failed or wrong.
    pub fn op(&mut self, error: Option<String>) {
        self.attempted += 1;
        if let Some(e) = error {
            self.failed += 1;
            self.note_error(&e);
        }
    }

    /// Count `n` attempted operations of which `failed` went wrong.
    pub fn ops(&mut self, n: u64, failed: u64, what: &str) {
        self.attempted += n;
        self.failed += failed;
        if failed > 0 {
            self.note_error(&format!("{failed} of {n} {what} failed"));
        }
    }

    /// Print `error_rate`: failed (or wrong) operations over attempted ones.
    pub fn error_rate(&mut self) {
        let rate = self.failed as f64 / self.attempted.max(1) as f64;
        self.metric(
            "error_rate",
            "ratio",
            rate,
            &format!("{} of {}", self.failed, self.attempted),
        );
    }

    fn note_error(&mut self, e: &str) {
        if self.errors_shown < MAX_ERRORS_SHOWN {
            println!("error: {e}");
            self.errors_shown += 1;
        }
    }

    /// Mark the whole run invalid (e.g. the load generator itself lagged).
    pub fn invalidate(&mut self, why: String) {
        println!("invalid: {why}");
        self.invalid.push(why);
    }

    /// Record a metric: printed now, and exported in the JSON line when it
    /// is one of the mode's contract metrics.
    pub fn metric(&mut self, name: &str, unit: &str, value: f64, note: &str) {
        let sep = if note.is_empty() { "" } else { "  # " };
        println!(
            "{:<10} {name:<32} {value:>14.4} {unit:<6}{sep}{note}",
            self.workload
        );
        self.metrics.retain(|(n, _)| n != name);
        self.metrics.push((name.to_string(), value));
    }

    /// Print a provenance line (code identity, toolchain, host load).
    pub fn provenance(&mut self, ctx: &Ctx) {
        let git = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .current_dir(&ctx.root)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "none".to_string());
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_default();
        let nproc = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(0);
        let (low, high) = crate::serve::RATES;
        println!(
            "provenance {{\"workload\": {}, \"trace\": {}, \"git_commit\": {}, \"source_fnv\": \"{:016x}\", \
             \"code_version\": {}, \"rustc\": {}, \"nproc\": {nproc}, \"loadavg_1m\": {}, \
             \"seed\": {}, \"seconds\": {}, \"threads\": {}, \"low_rps\": {low}, \"high_rps\": {high}}}",
            json_str(&self.workload),
            self.trace,
            json_str(&git),
            source_fingerprint(&ctx.root),
            json_str(spec_analysis::stage::CODE_VERSION),
            json_str(&rustc),
            crate::sys::loadavg_1m().unwrap_or(f64::NAN),
            ctx.seed,
            ctx.seconds,
            crate::THREADS,
        );
    }

    /// Print the final JSON line. Exits non-zero if a contract metric is
    /// missing or not a finite number — a broken run prints no result.
    pub fn print(&self) {
        let wanted: &[(&str, &str)] = if self.trace { &PER_LAYER } else { &END_TO_END };
        let mut body = String::new();
        for (i, (name, unit)) in wanted.iter().enumerate() {
            let value = match self.metrics.iter().find(|(n, _)| n == name) {
                Some(&(_, v)) => v,
                // Layers this workload never calls did no work.
                None if self.trace => 0.0,
                None => {
                    eprintln!("perfbench: metric {name} was not measured");
                    std::process::exit(1);
                }
            };
            if !value.is_finite() {
                eprintln!("perfbench: metric {name} is not a finite number ({value})");
                std::process::exit(1);
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                body,
                "{sep}{}: {{\"value\": {value:?}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            );
        }
        let correct = self.failed == 0 && self.invalid.is_empty() && self.attempted > 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.attempted.max(1),
            self.failed,
        );
    }
}

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// FNV-1a over the workspace sources (`crates/**/*.rs`, manifests and
/// lockfile), so a result identifies the code even without git.
fn source_fingerprint(root: &Path) -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files {
        for b in path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .bytes()
        {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        for b in std::fs::read(&path).unwrap_or_default() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// metrics this binary exports, with the same units.
    #[test]
    fn benchmark_json_matches_exported_metrics() {
        let text = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json");
        for (section, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let start = text.find(&format!("\"{section}\"")).expect(section);
            let block = &text[start..];
            let block = &block[..block.find(']').expect("closing bracket")];
            let declared = block.matches("\"name\"").count();
            assert_eq!(declared, list.len(), "{section}: count");
            for (name, unit) in list {
                let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(block.contains(&needle), "{section}: {needle}");
            }
        }
    }

    #[test]
    fn json_strings_escape() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
