//! `study_x1`: the README session over the paper-sized on-disk corpus —
//! cold `analyze --data`, then warm `figures --out` and `export --out`
//! against a fresh `--cache-dir`.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::cli::{diff_dirs, s, Cli};
use crate::ledger::{self, Ledger};
use crate::outcome::Outcome;
use crate::stats::{median, windowed_tail};
use crate::Ctx;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Fewest jobs per tail window (at most 3 windows).
pub const JOBS_PER_WINDOW: usize = 60;
/// Reports in the paper-sized corpus.
pub const REPORTS: usize = 1017;
/// The CLI's default seed, with which the committed `figures/` and
/// `data/` were generated.
pub const GOLDEN_SEED: u64 = 3;

/// The cascade lines `analyze` must print for the paper-sized corpus.
pub const CASCADE: [&str; 3] = [
    "raw submissions: 1017",
    "valid dataset: 960",
    "comparable dataset: 676",
];

/// Generate the seeded corpus `SETUPS` times; returns the corpus
/// directory and the set-up walls (s). Every copy must be identical.
pub fn setup_corpus(
    cli: &Cli,
    seed: u64,
    scale: u32,
    out: &mut Outcome,
) -> Result<(PathBuf, Vec<f64>), String> {
    let seed = seed.to_string();
    let scale = scale.to_string();
    let mut walls = Vec::new();
    let first = cli.work.join("corpus0");
    for i in 0..SETUPS {
        let dir = cli.work.join(format!("corpus{i}"));
        let _ = std::fs::remove_dir_all(&dir);
        crate::sys::flush_disks();
        let step = cli.run(&[
            "generate",
            "--out",
            s(&dir),
            "--seed",
            &seed,
            "--scale",
            &scale,
        ])?;
        walls.push(step.wall.as_secs_f64());
        if i > 0 {
            let diffs = diff_dirs(&first, &dir);
            out.op(diffs
                .first()
                .map(|d| format!("generate is not deterministic: {d}")));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    Ok((first, walls))
}

/// The synthetic-path reference outputs for `seed`: analyze stdout and
/// the figure/data directories.
struct Reference {
    analyze: String,
    figures: PathBuf,
    data: PathBuf,
}

fn reference(ctx: &Ctx, out: &mut Outcome) -> Result<Reference, String> {
    let cli = &ctx.cli;
    let seed = ctx.seed.to_string();
    let figures = cli.work.join("ref_figures");
    let data = cli.work.join("ref_data");
    let _ = std::fs::remove_dir_all(&figures);
    let _ = std::fs::remove_dir_all(&data);
    let analyze = cli.run(&["analyze", "--seed", &seed])?.stdout;
    cli.run(&["figures", "--out", s(&figures), "--seed", &seed])?;
    cli.run(&["export", "--out", s(&data), "--seed", &seed])?;
    out.op(check_analyze(&analyze, ctx.seed).err());
    if ctx.seed == GOLDEN_SEED {
        for (ours, committed) in [(&figures, "figures"), (&data, "data")] {
            let diffs = diff_dirs(ours, &ctx.root.join(committed));
            // The committed directories may hold more files than we render.
            let diffs: Vec<_> = diffs
                .into_iter()
                .filter(|d| !d.starts_with("file sets"))
                .collect();
            out.op(diffs
                .first()
                .map(|d| format!("committed {committed}/: {d}")));
        }
    }
    Ok(Reference {
        analyze,
        figures,
        data,
    })
}

/// `analyze` must print the paper's cascade; at the golden seed every
/// ledger check must also pass.
fn check_analyze(stdout: &str, seed: u64) -> Result<(), String> {
    for line in CASCADE {
        if !stdout.lines().any(|l| l.trim() == line) {
            return Err(format!("analyze did not print `{line}`"));
        }
    }
    if seed == GOLDEN_SEED && !stdout.contains("48/48 checks within tolerance") {
        return Err("analyze at the golden seed did not print 48/48".to_string());
    }
    Ok(())
}

/// One timed session: step walls (ms) and the peak RSS of its steps.
struct Job {
    steps_ms: [f64; 3],
    rss_mb: f64,
}

fn job(
    cli: &Cli,
    corpus: &Path,
    seed: u64,
    reference: &Reference,
) -> Result<(Job, Option<String>), String> {
    let seed = seed.to_string();
    let cache = cli.work.join("job_cache");
    let figs = cli.work.join("job_figures");
    let data = cli.work.join("job_data");
    for dir in [&cache, &figs, &data] {
        let _ = std::fs::remove_dir_all(dir);
    }
    let a = cli.run(&[
        "analyze",
        "--data",
        s(corpus),
        "--cache-dir",
        s(&cache),
        "--seed",
        &seed,
    ])?;
    let f = cli.run(&[
        "figures",
        "--out",
        s(&figs),
        "--data",
        s(corpus),
        "--cache-dir",
        s(&cache),
        "--seed",
        &seed,
    ])?;
    let e = cli.run(&[
        "export",
        "--out",
        s(&data),
        "--data",
        s(corpus),
        "--cache-dir",
        s(&cache),
        "--seed",
        &seed,
    ])?;
    let mut error = None;
    if a.stdout != reference.analyze {
        error = Some("analyze --data stdout differs from the synthetic path".to_string());
    }
    for (want, got) in [(&reference.figures, &figs), (&reference.data, &data)] {
        if let Some(d) = diff_dirs(want, got).into_iter().next() {
            error.get_or_insert(format!("{}: {d}", got.display()));
        }
    }
    let steps_ms = [a.wall, f.wall, e.wall].map(|w| w.as_secs_f64() * 1e3);
    let rss_mb = a.maxrss_mb.max(f.maxrss_mb).max(e.maxrss_mb);
    Ok((Job { steps_ms, rss_mb }, error))
}

/// Run the workload.
pub fn run(ctx: &Ctx, trace: bool, out: &mut Outcome) -> Result<(), String> {
    let cli = &ctx.cli;
    let (corpus, setup) = setup_corpus(cli, ctx.seed, 1, out)?;
    let reference = reference(ctx, out)?;

    // With tracing, a third of the budget times CLI steps, the rest replays.
    let budget = if trace {
        ctx.seconds / 3.0
    } else {
        ctx.seconds
    };
    let start = Instant::now();
    let mut jobs = Vec::new();
    while jobs.len() < 3 || start.elapsed().as_secs_f64() < budget {
        let (j, error) = job(cli, &corpus, ctx.seed, &reference)?;
        out.op(error);
        jobs.push(j);
    }
    let totals: Vec<f64> = jobs.iter().map(|j| j.steps_ms.iter().sum()).collect();
    let step = |i: usize| median(&jobs.iter().map(|j| j.steps_ms[i]).collect::<Vec<_>>());
    let n = jobs.len();
    if !trace {
        let t = windowed_tail(&totals, JOBS_PER_WINDOW, 3, 99.0);
        let rss = median(&jobs.iter().map(|j| j.rss_mb).collect::<Vec<_>>());
        let reports_per_s = (REPORTS * n) as f64 / (totals.iter().sum::<f64>() / 1e3);
        out.metric(
            "setup_s",
            "s",
            median(&setup),
            &format!("median of {} generate runs", setup.len()),
        );
        out.metric(
            "op_p50_ms",
            "ms",
            median(&totals),
            &format!("job_p50_ms, n={n}"),
        );
        out.metric(
            "op_tail_ms",
            "ms",
            t.value,
            &format!(
                "job_tail_ms = median of windows, p{:.1} of n>={} each",
                t.pct, t.n
            ),
        );
        out.metric(
            "peak_rss_mb",
            "MiB",
            rss,
            "median over jobs of the largest step VmHWM",
        );
        out.metric(
            "throughput_per_s",
            "1/s",
            reports_per_s,
            "reports through a session per second",
        );
        out.error_rate();
        return Ok(());
    }
    out.metric("cli.analyze_ms", "ms", step(0), &format!("median, n={n}"));
    out.metric("cli.figures_ms", "ms", step(1), &format!("median, n={n}"));
    out.metric("cli.export_ms", "ms", step(2), &format!("median, n={n}"));
    replay(ctx, &corpus, &reference, start, out)
}

/// Alternate traced and untimed replays for the rest of the budget.
fn replay(
    ctx: &Ctx,
    corpus: &Path,
    reference: &Reference,
    start: Instant,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut traced = Ledger::new(true);
    let (mut traced_walls, mut plain_walls) = (Vec::new(), Vec::new());
    let mut probe = (0.0, 0usize);
    while traced_walls.len() < 3 || start.elapsed().as_secs_f64() < ctx.seconds {
        let order = if traced_walls.len() % 2 == 0 {
            [true, false]
        } else {
            [false, true]
        };
        for on in order {
            let mut l = if on {
                std::mem::take(&mut traced)
            } else {
                Ledger::new(false)
            };
            l.on = on;
            let t0 = Instant::now();
            let session = ledger::study_session(corpus, ctx.seed, &mut l)?;
            let wall = t0.elapsed().as_secs_f64() * 1e3;
            if on {
                traced_walls.push(wall);
                out.op(check_session(&session, reference).err());
                // Figure 6's Theil–Sen fit, timed alone outside the replay.
                let (xs, ys) = &session.fig6_points;
                let t0 = Instant::now();
                let fit = tinystats::theil_sen(xs, ys);
                probe.0 += t0.elapsed().as_secs_f64() * 1e3;
                probe.1 = xs.len();
                let same = format!("{fit:?}") == format!("{:?}", session.fig6_robust);
                out.op((!same).then(|| "Theil–Sen probe disagrees with Figure 6".to_string()));
                traced = l;
            } else {
                plain_walls.push(wall);
            }
        }
    }
    let reps = traced_walls.len() as f64;
    out.metric(
        "stats.theil_sen_ms",
        "ms",
        probe.0 / reps,
        "probe outside the replay",
    );
    out.metric("stats.theil_sen_points", "count", probe.1 as f64, "");
    traced.report(out, &traced_walls, &plain_walls, "per session");
    Ok(())
}

fn check_session(session: &ledger::SessionOut, reference: &Reference) -> Result<(), String> {
    let r = &session.report;
    if (r.raw, r.valid, r.comparable) != (1017, 960, 676) {
        return Err(format!(
            "replay cascade {} -> {} -> {}",
            r.raw, r.valid, r.comparable
        ));
    }
    for (dir, files) in [
        (&reference.figures, &session.figures),
        (&reference.data, &session.data),
    ] {
        for (name, content) in files {
            if std::fs::read(dir.join(name)).ok().as_deref() != Some(content.as_bytes()) {
                return Err(format!("replay output {name} differs from the CLI"));
            }
        }
    }
    Ok(())
}
