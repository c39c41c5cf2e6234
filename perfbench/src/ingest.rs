//! `ingest_x100`: `ingest --scale 100 --max-resident-mb 8` streams
//! 101,700 synthetic reports through the cascade into spilling segment
//! stores. No figure reduce, render, cache or file read runs here.

use std::time::Instant;

use crate::cli::Cli;
use crate::ledger::{self, Ledger};
use crate::outcome::Outcome;
use crate::stats::{median, windowed_tail};
use crate::study::{JOBS_PER_WINDOW, SETUPS};
use crate::Ctx;

/// Corpus replication factor.
pub const SCALE: u32 = 100;
/// Resident-segment budget, MiB.
pub const MAX_RESIDENT_MB: usize = 8;

/// What one `ingest` invocation printed.
#[derive(Debug, Default)]
pub struct Printed {
    /// `(label, count)` of every cascade line, in order.
    pub cascade: Vec<(String, u64)>,
    /// The program's own throughput figure.
    pub reports_per_s: f64,
    /// The program's own `VmHWM` line, MiB.
    pub vm_hwm_mb: f64,
}

impl Printed {
    /// The count printed for `label`.
    pub fn get(&self, label: &str) -> Option<u64> {
        self.cascade
            .iter()
            .find(|(l, _)| l == label)
            .map(|&(_, n)| n)
    }
}

/// Parse `ingest` stdout.
pub fn parse(stdout: &str) -> Result<Printed, String> {
    let mut p = Printed::default();
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("ingested ") {
            let rate = rest
                .split(", ")
                .last()
                .and_then(|r| r.strip_suffix(" reports/s"));
            p.reports_per_s = rate
                .and_then(|r| r.parse().ok())
                .ok_or("bad throughput line")?;
        } else if let Some(rest) = line.strip_prefix("peak RSS: ") {
            let mb = rest.split_whitespace().next().and_then(|v| v.parse().ok());
            p.vm_hwm_mb = mb.ok_or("bad peak RSS line")?;
        } else if let Some((label, n)) = line.rsplit_once(": ") {
            if let Ok(n) = n.trim().parse::<u64>() {
                p.cascade
                    .push((label.trim().trim_start_matches("- ").to_string(), n));
            }
        }
    }
    if p.cascade.is_empty() || p.reports_per_s <= 0.0 || p.vm_hwm_mb <= 0.0 {
        return Err(format!("unexpected ingest output:\n{stdout}"));
    }
    Ok(p)
}

/// Every cascade line of `big` is exactly `scale` times the same line of
/// `base`, and both print the same lines.
pub fn check_scaled(base: &Printed, big: &Printed, scale: u64) -> Result<(), String> {
    if base.cascade.len() != big.cascade.len() {
        return Err(format!(
            "cascade has {} lines, ×1 has {}",
            big.cascade.len(),
            base.cascade.len()
        ));
    }
    for ((l1, n1), (l2, n2)) in base.cascade.iter().zip(&big.cascade) {
        if l1 != l2 || n1 * scale != *n2 {
            return Err(format!("`{l2}: {n2}` is not {scale} × `{l1}: {n1}`"));
        }
    }
    Ok(())
}

fn ingest(cli: &Cli, seed: u64, scale: u32, spill: bool) -> Result<(f64, Printed), String> {
    let (seed, scale, mb) = (
        seed.to_string(),
        scale.to_string(),
        MAX_RESIDENT_MB.to_string(),
    );
    let mut args = vec!["ingest", "--scale", &scale, "--seed", &seed];
    if spill {
        args.extend(["--max-resident-mb", &mb]);
    }
    let step = cli.run(&args)?;
    let mut printed = parse(&step.stdout)?;
    // The kernel's peak (KiB) agrees with the VmHWM line the program
    // prints (0.1 MiB) and keeps all its digits.
    if (step.maxrss_mb - printed.vm_hwm_mb).abs() > 0.5 {
        return Err(format!(
            "VmHWM line {} MiB, kernel peak {:.2} MiB",
            printed.vm_hwm_mb, step.maxrss_mb
        ));
    }
    printed.vm_hwm_mb = step.maxrss_mb;
    Ok((step.wall.as_secs_f64(), printed))
}

/// Run the workload.
pub fn run(ctx: &Ctx, trace: bool, out: &mut Outcome) -> Result<(), String> {
    let cli = &ctx.cli;
    // Set-up: the ×1 stream — process start and base-corpus synthesis,
    // the fixed cost under every ingest. Its cascade is the oracle's base.
    let mut setup = Vec::new();
    let mut base = None;
    for _ in 0..SETUPS {
        crate::sys::flush_disks();
        let (wall, printed) = ingest(cli, ctx.seed, 1, false)?;
        setup.push(wall);
        if base
            .as_ref()
            .is_some_and(|b: &Printed| b.cascade != printed.cascade)
        {
            out.op(Some(
                "×1 cascade differs between identical runs".to_string(),
            ));
        }
        base = Some(printed);
    }
    let base = base.ok_or("no set-up run")?;

    let budget = if trace {
        ctx.seconds / 3.0
    } else {
        ctx.seconds
    };
    let start = Instant::now();
    let (mut walls, mut rates, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = Printed::default();
    while walls.len() < 3 || start.elapsed().as_secs_f64() < budget {
        let (wall, printed) = ingest(cli, ctx.seed, SCALE, true)?;
        out.op(check_scaled(&base, &printed, SCALE as u64).err());
        walls.push(wall * 1e3);
        rates.push(printed.reports_per_s);
        rss.push(printed.vm_hwm_mb);
        last = printed;
    }
    let n = walls.len();
    if !trace {
        let t = windowed_tail(&walls, JOBS_PER_WINDOW, 3, 99.0);
        out.metric(
            "setup_s",
            "s",
            median(&setup),
            &format!("median of {} `ingest --scale 1` runs", setup.len()),
        );
        out.metric(
            "op_p50_ms",
            "ms",
            median(&walls),
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
            median(&rss),
            "median VmHWM of the ingest process",
        );
        out.metric(
            "throughput_per_s",
            "1/s",
            median(&rates),
            &format!("reports_per_s, median, n={n}"),
        );
        out.error_rate();
        return Ok(());
    }
    out.metric(
        "cli.ingest_ms",
        "ms",
        median(&walls),
        &format!("median, n={n}"),
    );

    let spill_dir = cli.work.join("replay_spill");
    let mut traced = Ledger::new(true);
    let (mut traced_walls, mut plain_walls) = (Vec::new(), Vec::new());
    while traced_walls.len() < 2 || start.elapsed().as_secs_f64() < ctx.seconds {
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
            let _ = std::fs::remove_dir_all(&spill_dir);
            let t0 = Instant::now();
            let replay =
                ledger::ingest_stream(ctx.seed, SCALE, MAX_RESIDENT_MB, &spill_dir, &mut l)?;
            let wall = t0.elapsed().as_secs_f64() * 1e3;
            let _ = std::fs::remove_dir_all(&spill_dir);
            if on {
                traced_walls.push(wall);
                let r = &replay.report;
                let cli_counts =
                    ["raw submissions", "valid dataset", "comparable dataset"].map(|k| last.get(k));
                let ok = cli_counts
                    == [
                        Some(r.raw as u64),
                        Some(r.valid as u64),
                        Some(r.comparable as u64),
                    ];
                out.op((!ok).then(|| {
                    format!(
                        "replay cascade {} -> {} -> {} differs from the CLI",
                        r.raw, r.valid, r.comparable
                    )
                }));
                traced = l;
            } else {
                plain_walls.push(wall);
            }
        }
    }
    traced.report(out, &traced_walls, &plain_walls, "per replay");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const X1: &str = "streaming synthetic dataset (seed 7, scale ×1)\nraw submissions: 1017\n  - not accepted by SPEC: 40\nvalid dataset: 960\ncomparable dataset: 676\n\ningested 1017 report(s) in 1 batch(es): 0.09 s, 11793 reports/s\nsegments: 0 resident (0.0 MiB), 0 spilled (0.0 MiB written)\npeak RSS: 12.0 MiB (VmHWM)\n";

    #[test]
    fn parses_and_checks_scaled_cascade() {
        let base = parse(X1).unwrap();
        assert_eq!(base.get("not accepted by SPEC"), Some(40));
        assert_eq!(base.reports_per_s, 11793.0);
        let big = parse(
            &X1.replace("1017\n", "101700\n")
                .replace(": 40", ": 4000")
                .replace("960", "96000")
                .replace("676", "67600"),
        )
        .unwrap();
        assert!(check_scaled(&base, &big, 100).is_ok());
        let off = parse(
            &X1.replace("1017\n", "101700\n")
                .replace(": 40", ": 4001")
                .replace("960", "96000")
                .replace("676", "67600"),
        )
        .unwrap();
        assert!(check_scaled(&base, &off, 100).is_err());
    }
}
