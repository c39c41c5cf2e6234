//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload study_x1|ingest_x100|serve_x10 --seed N --seconds S
//!           --trace 0|1 --bin PATH/spec-trends --work DIR [--root DIR]
//! ```
//!
//! With `--trace 0` it drives the shipped `spec-trends` surfaces and
//! prints the end-to-end metrics; with `--trace 1` it prints the
//! per-layer ledger. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `NOTES.md`.

mod cli;
mod http;
mod ingest;
mod ledger;
mod loadgen;
mod outcome;
mod serve;
mod stats;
mod study;
mod sys;

use std::path::PathBuf;

use outcome::Outcome;

/// Everything a workload needs from the command line.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// The binary under test and its invocation settings.
    pub cli: cli::Cli,
    /// Workload seed; every input is a function of it.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Root of the checkout (committed goldens live there).
    pub root: PathBuf,
}

/// Load-generating threads and connections, and `--threads` for every
/// `spec-trends` invocation.
pub const THREADS: usize = 2;

const WORKLOADS: [&str; 3] = ["study_x1", "ingest_x100", "serve_x10"];

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1 --bin PATH --work DIR [--root DIR]",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut bin, mut work, mut root) = (None, None, PathBuf::from("."));
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = Some(value == "1"),
            "--bin" => bin = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            "--root" => root = PathBuf::from(value),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    let ctx = Ctx {
        cli: cli::Cli {
            bin: bin.unwrap_or_else(|| usage("--bin is required")),
            work: work.unwrap_or_else(|| usage("--work is required")),
            threads: THREADS,
        },
        seed: seed.unwrap_or_else(|| usage("--seed needs a whole number")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds needs a positive number")),
        root,
    };
    let trace = trace.unwrap_or(false);
    if let Err(e) = std::fs::create_dir_all(&ctx.cli.work) {
        usage(&format!("cannot create work dir: {e}"));
    }

    let mut out = Outcome::new(&workload, trace);
    out.provenance(&ctx);
    let result = match workload.as_str() {
        "study_x1" => study::run(&ctx, trace, &mut out),
        "ingest_x100" => ingest::run(&ctx, trace, &mut out),
        _ => serve::run(&ctx, trace, &mut out),
    };
    // A workload that cannot finish prints no result: the run is broken,
    // not merely slow or wrong.
    if let Err(e) = result {
        eprintln!("perfbench: {workload}: {e}");
        std::process::exit(1);
    }
    out.print();
}
