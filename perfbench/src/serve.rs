//! `serve_x10`: the README daemon over a seeded ×10 on-disk corpus with
//! some reports held back, under open-loop read traffic at fixed rates, a
//! capacity search, and reads while the held-back reports land one by one.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::Child;
use std::time::{Duration, Instant};

use crate::cli::{s, Cli};
use crate::http::{self, Response};
use crate::loadgen::{self, arrivals, capacity_search, Class, Drive, Observer, Quiet, Req, Rng};
use crate::outcome::Outcome;
use crate::stats::{median, percentile, tail, Tail};
use crate::study::SETUPS;
use crate::Ctx;

/// The fixed `(low, high)` read rates, requests/s: about 20% and 70% of
/// the sustained rate at which the read tail reached 100 ms at the
/// benchmark's first commit on a 2-vCPU host, then frozen (see `NOTES.md`).
pub const RATES: (f64, f64) = (60.0, 210.0);
/// Corpus replication factor.
pub const SCALE: u32 = 10;
/// Reports held back at set-up and landed during the write phase.
pub const HELD_BACK: usize = 4;
/// Filtered query keys (more than the daemon's 256-entry memo).
pub const FILTERED_KEYS: usize = 3000;
/// Fixed seed of the filtered key table.
const KEYSET_SEED: u64 = 0x5EC_2024;
/// Zipf exponent of filtered-key popularity.
pub const ZIPF_S: f64 = 1.0;
/// Latency limit of the capacity search, on the supported tail.
pub const LIMIT_MS: f64 = 100.0;
/// Watcher poll interval passed to the daemon.
pub const POLL_MS: u64 = 250;
/// Generator lateness (p90, ms) above which a phase is invalid.
pub const MAX_LATE_MS: f64 = 10.0;
/// Interval of the write phase's `/stats` probes.
const PROBE_EVERY: Duration = Duration::from_millis(25);
const STATS: usize = 12;
const UNFILTERED: usize = 12;
const TIMEOUT: Duration = Duration::from_secs(10);

/// The target table: 12 unfiltered targets, `/stats`, then the filtered
/// keys in popularity order, 250 per endpoint, each a year range × vendor
/// list (× `agg=year` where allowed); rank `r` queries endpoint `r mod 12`.
/// The table is the same for every seed: a miss on `/figures/6` costs
/// anywhere from under 1 ms to ~85 ms depending on its filter, so letting
/// the seed pick which keys are popular would let it pick the tail.
pub fn targets() -> Vec<String> {
    let mut out: Vec<String> = (1..=6)
        .map(|n| format!("/figures/{n}"))
        .chain((1..=6).map(|n| format!("/data/{n}")))
        .collect();
    out.push("/stats".to_string());
    let vendors = ["intel", "amd", "other"];
    let per_endpoint = FILTERED_KEYS / UNFILTERED;
    let mut keyset = Rng::new(KEYSET_SEED, 0xF1);
    let strata: Vec<Vec<String>> = out[..UNFILTERED]
        .iter()
        .map(|base| {
            let agg_ok = ["/data/2", "/data/3", "/data/5", "/data/6"].contains(&base.as_str());
            let mut keys = BTreeSet::new();
            while keys.len() < per_endpoint {
                let (a, b) = (2005 + keyset.below(20), 2005 + keyset.below(20));
                let (lo, hi) = (a.min(b), a.max(b));
                let year = if lo == hi {
                    lo.to_string()
                } else {
                    format!("{lo}-{hi}")
                };
                let mask = 1 + keyset.below(7);
                let list: Vec<&str> = (0..3)
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| vendors[i])
                    .collect();
                let agg = if agg_ok && keyset.below(2) == 0 {
                    "&agg=year"
                } else {
                    ""
                };
                keys.insert(format!("{base}?year={year}&vendor={}{agg}", list.join(",")));
            }
            let mut keys: Vec<String> = keys.into_iter().collect();
            for i in (1..keys.len()).rev() {
                keys.swap(i, keyset.below(i + 1));
            }
            keys
        })
        .collect();
    for rank in 0..per_endpoint * UNFILTERED {
        out.push(strata[rank % UNFILTERED][rank / UNFILTERED].clone());
    }
    out
}

/// Draws request classes and targets: ~50% unfiltered (uniform), ~45%
/// filtered (Zipf over the keys), the rest `/stats`.
pub struct Mix {
    rng: Rng,
    zipf_cdf: Vec<f64>,
}

impl Mix {
    /// Seeded mix.
    pub fn new(seed: u64, stream: u64) -> Mix {
        let weights: Vec<f64> = (1..=FILTERED_KEYS)
            .map(|r| (r as f64).powf(-ZIPF_S))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let zipf_cdf = weights.iter().map(|w| {
            acc += w / total;
            acc
        });
        Mix {
            rng: Rng::new(seed, stream),
            zipf_cdf: zipf_cdf.collect(),
        }
    }

    /// Schedule Poisson arrivals at `rate` for `seconds`.
    pub fn schedule(&mut self, rate: f64, seconds: f64) -> Vec<Req> {
        let times = arrivals(&mut self.rng, rate, seconds, Duration::ZERO);
        times
            .into_iter()
            .map(|due| {
                let u = self.rng.unit();
                let (class, target) = if u < 0.50 {
                    (Class::Unfiltered, self.rng.below(UNFILTERED))
                } else if u < 0.95 {
                    let x = self.rng.unit();
                    let rank = self
                        .zipf_cdf
                        .partition_point(|&c| c < x)
                        .min(FILTERED_KEYS - 1);
                    (Class::Filtered, STATS + 1 + rank)
                } else {
                    (Class::Stats, STATS)
                };
                Req { target, class, due }
            })
            .collect()
    }
}

/// A running daemon; killed and reaped on drop if still alive.
struct Daemon {
    child: Option<Child>,
    addr: SocketAddr,
    // Held open so the daemon never writes into a closed pipe.
    _stdout: Option<BufReader<std::process::ChildStdout>>,
}

impl Daemon {
    fn start(cli: &Cli, data: &Path, cache: Option<&Path>, tag: &str) -> Result<Daemon, String> {
        let poll = POLL_MS.to_string();
        let mut args = vec![
            "serve",
            "--data",
            s(data),
            "--addr",
            "127.0.0.1:0",
            "--poll-ms",
            &poll,
        ];
        if let Some(c) = cache {
            args.extend(["--cache-dir", s(c)]);
        }
        let mut child = cli.spawn(&args, &cli.work.join(format!("{tag}.stderr")))?;
        let stdout = child.stdout.take().ok_or("no daemon stdout")?;
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let mut daemon = Daemon {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            _stdout: Some(stdout),
        };
        read.map_err(|e| e.to_string())?;
        let addr = line
            .trim()
            .strip_prefix("listening on http://")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("daemon did not start: {line:?}"))?;
        daemon.addr = addr;
        let deadline = Instant::now() + TIMEOUT;
        loop {
            if http::get(addr, "/readyz", TIMEOUT).is_ok_and(|r| r.status == 200) {
                return Ok(daemon);
            }
            if Instant::now() > deadline {
                return Err("daemon never became ready".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Graceful `/shutdown`, then reap.
    fn shutdown(mut self) -> Result<(), String> {
        let _ = http::get(self.addr, "/shutdown", TIMEOUT);
        let mut child = self.child.take().ok_or("daemon already gone")?;
        let deadline = Instant::now() + TIMEOUT;
        loop {
            match child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("daemon exited with {status}")),
                None if Instant::now() > deadline => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon did not drain in time".to_string());
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Parse `/stats` into `name -> value`; histogram lines give
/// `name.count` and `name.sum`.
pub fn parse_stats(body: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in body.lines() {
        let mut parts = line.split_whitespace();
        let (Some(name), Some(value)) = (parts.next(), parts.next()) else {
            continue;
        };
        if let Some(count) = value.strip_prefix("count=") {
            let sum = parts.next().and_then(|v| v.strip_prefix("sum="));
            if let (Ok(c), Some(Ok(s))) = (count.parse(), sum.map(str::parse)) {
                out.insert(format!("{name}.count"), c);
                out.insert(format!("{name}.sum"), s);
            }
        } else if let Ok(v) = value.parse::<f64>() {
            out.entry(name.to_string()).or_insert(v);
        }
    }
    out
}

fn stats(addr: SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    let r = http::get(addr, "/stats", TIMEOUT)?;
    Ok(parse_stats(&String::from_utf8_lossy(&r.body)))
}

/// Most windows a phase is cut into. A host stall lands in one window;
/// every figure a phase reports is the median across its windows.
pub const WINDOWS: usize = 5;
/// Fewest requests per window.
const PER_WINDOW: usize = 600;

/// One window of a phase.
struct Window {
    p50: f64,
    tail: Tail,
    filtered: Tail,
    late_p90: f64,
}

/// The outcome of one phase's drive.
struct Phase {
    latency: Vec<f64>,
    drive: Drive,
    reqs: Vec<Req>,
    windows: Vec<Window>,
}

impl Phase {
    /// Median over windows of the window medians.
    fn p50(&self) -> f64 {
        median(&self.windows.iter().map(|w| w.p50).collect::<Vec<_>>())
    }

    /// Median over windows of each window's supported tail (capped at
    /// p99), with the lowest percentile and sample size among them.
    fn tail_by(&self, pick: fn(&Window) -> Tail) -> Tail {
        let tails: Vec<Tail> = self.windows.iter().map(pick).collect();
        let value = median(&tails.iter().map(|t| t.value).collect::<Vec<_>>());
        let pct = tails.iter().map(|t| t.pct).fold(100.0, f64::min);
        let n = tails.iter().map(|t| t.n).min().unwrap_or(0);
        Tail { pct, value, n }
    }

    /// All reads.
    fn tail(&self) -> Tail {
        self.tail_by(|w| w.tail)
    }

    /// Filtered reads, where memo misses land.
    fn filtered_tail(&self) -> Tail {
        self.tail_by(|w| w.filtered)
    }

    fn describe(&self, label: &str, t: Tail) -> String {
        format!(
            "{label}: median of {} windows, p{:.1} of n>={} each",
            self.windows.len(),
            t.pct,
            t.n
        )
    }
}

/// Drive `reqs`, count every request as an operation (wrong status or a
/// cut-short body fails it) and mark the run invalid if the generator
/// itself lagged in most windows.
fn phase(
    name: &'static str,
    addr: SocketAddr,
    reqs: Vec<Req>,
    targets: &[String],
    observer: &mut dyn Observer,
    out: &mut Outcome,
) -> Result<Phase, String> {
    let drive = loadgen::drive(addr, crate::THREADS, &reqs, targets, observer)?;
    let count = (reqs.len() / PER_WINDOW).clamp(1, WINDOWS);
    let span = reqs.last().map_or(1e-9, |r| r.due.as_secs_f64()).max(1e-9);
    // Per window: all latencies, filtered-read latencies, release lateness.
    let mut per: Vec<[Vec<f64>; 3]> = (0..count).map(|_| Default::default()).collect();
    let mut failed = 0;
    let mut latency = Vec::with_capacity(reqs.len());
    for ((req, rec), late) in reqs.iter().zip(&drive.records).zip(&drive.late_ms) {
        let w = ((req.due.as_secs_f64() / span * count as f64) as usize).min(count - 1);
        per[w][2].push(*late);
        match rec.latency_ms(req.due) {
            Some(ms) if rec.status == 200 => {
                latency.push(ms);
                per[w][0].push(ms);
                if req.class == Class::Filtered {
                    per[w][1].push(ms);
                }
            }
            _ => failed += 1,
        }
    }
    out.ops(reqs.len() as u64, failed, &format!("{name} requests"));
    // A response that broke HTTP framing was re-sent; it still counts.
    out.ops(
        drive.protocol_errors,
        drive.protocol_errors,
        &format!("{name} responses broke framing"),
    );
    let windows: Vec<Window> = per
        .iter()
        .map(|[all, filtered, late]| Window {
            p50: median(all),
            tail: tail(all, 99.0),
            filtered: tail(filtered, 99.0),
            late_p90: percentile(late, 90.0),
        })
        .collect();
    // A host stall delays a few percent of releases; a generator that
    // cannot keep up delays most of them.
    let late = median(&windows.iter().map(|w| w.late_p90).collect::<Vec<_>>());
    if late > MAX_LATE_MS {
        out.invalidate(format!(
            "{name}: generator ran {late:.2} ms late at p90 (median window)"
        ));
    }
    Ok(Phase {
        latency,
        drive,
        reqs,
        windows,
    })
}

/// Lands the held-back reports at fixed times and notes when `/stats`
/// first shows each one.
struct Writes {
    files: Vec<(PathBuf, PathBuf)>,
    land_at: Vec<Duration>,
    landed: Vec<Duration>,
    seen: Vec<Option<Duration>>,
    base_raw: f64,
    error: Option<String>,
}

impl Observer for Writes {
    fn tick(&mut self, now: Duration) {
        let i = self.landed.len();
        if i < self.files.len() && self.land_at[i] <= now {
            let (from, to) = &self.files[i];
            let tmp = to.with_extension("landing");
            // Copy under a name the daemon ignores, then rename: the
            // report appears whole.
            if let Err(e) = std::fs::copy(from, &tmp).and_then(|_| std::fs::rename(&tmp, to)) {
                self.error
                    .get_or_insert(format!("landing {}: {e}", to.display()));
            }
            self.landed.push(now);
        }
    }

    fn response(&mut self, _index: usize, response: &Response, now: Duration) {
        let body = String::from_utf8_lossy(&response.body);
        if !body.starts_with("generation ") {
            return;
        }
        let raw = parse_stats(&body).get("raw").copied().unwrap_or(0.0);
        for (j, seen) in self.seen.iter_mut().enumerate().take(self.landed.len()) {
            if seen.is_none() && raw >= self.base_raw + (j + 1) as f64 {
                *seen = Some(now);
            }
        }
    }
}

/// Generate the corpus, hold reports back, start the daemon, wait ready.
/// Generate the ×10 corpus and move `HELD_BACK` seeded reports aside;
/// returns the corpus directory and `(held, destination)` pairs.
fn corpus(cli: &Cli, seed: u64) -> Result<(PathBuf, Vec<(PathBuf, PathBuf)>), String> {
    let corpus = cli.work.join("serve_corpus");
    let held = cli.work.join("serve_held");
    for dir in [&corpus, &held] {
        let _ = std::fs::remove_dir_all(dir);
    }
    std::fs::create_dir_all(&held).map_err(|e| e.to_string())?;
    let (seed_s, scale) = (seed.to_string(), SCALE.to_string());
    let generate = cli
        .run(&[
            "generate",
            "--out",
            s(&corpus),
            "--seed",
            &seed_s,
            "--scale",
            &scale,
        ])?
        .wall;
    println!(
        "serve_x10  generate --scale {SCALE}: {:.3} s (input preparation, not set-up)",
        generate.as_secs_f64()
    );
    let mut names: Vec<PathBuf> = std::fs::read_dir(&corpus)
        .map_err(|e| e.to_string())?
        .flatten()
        .map(|e| e.path())
        .collect();
    names.sort();
    let mut rng = Rng::new(seed, 0x4E1D);
    let mut files = Vec::new();
    while files.len() < HELD_BACK {
        let path = names.swap_remove(rng.below(names.len()));
        let name = path.file_name().ok_or("bad corpus file")?.to_owned();
        std::fs::rename(&path, held.join(&name)).map_err(|e| e.to_string())?;
        files.push((held.join(&name), path));
    }
    Ok((corpus, files))
}

/// Start the daemon on `corpus` with a fresh cache directory; returns it
/// and the wall time from spawn until `/readyz` answers.
fn set_up(cli: &Cli, corpus: &Path, i: usize) -> Result<(Daemon, f64), String> {
    let cache = cli.work.join(format!("serve_cache{i}"));
    let _ = std::fs::remove_dir_all(&cache);
    crate::sys::flush_disks();
    let start = Instant::now();
    let daemon = Daemon::start(cli, corpus, Some(&cache), &format!("serve{i}"))?;
    Ok((daemon, start.elapsed().as_secs_f64()))
}

/// Split of the measurement budget across phases (shares of `--seconds`).
struct Budget {
    warm: f64,
    low: f64,
    high: f64,
    write: f64,
    trial: f64,
    trials: usize,
}

impl Budget {
    fn new(seconds: f64) -> Budget {
        Budget {
            warm: seconds * 0.05,
            low: seconds * 0.10,
            high: seconds * 0.45,
            write: seconds * 0.20,
            trial: seconds * 0.025,
            trials: 4,
        }
    }
}

/// Requests offered at once to measure the saturated throughput, and how
/// many such bursts run (all requests over all busy time is reported).
pub const SATURATION_REQUESTS: usize = 1500;
const SATURATION_BURSTS: usize = 3;

/// Run the workload.
pub fn run(ctx: &Ctx, trace: bool, out: &mut Outcome) -> Result<(), String> {
    let cli = &ctx.cli;
    let targets = targets();
    let budget = Budget::new(ctx.seconds);
    let (low, high) = RATES;

    let mut setup = Vec::new();
    let mut kept = None;
    let (corpus, files) = corpus(cli, ctx.seed)?;
    for i in 0..SETUPS {
        let (daemon, wall) = set_up(cli, &corpus, i)?;
        setup.push(wall);
        if i + 1 < SETUPS {
            daemon.shutdown()?;
        } else {
            kept = Some(daemon);
        }
    }
    let daemon = kept.ok_or("no set-up")?;
    let addr = daemon.addr;
    let snapshot = |on: bool| -> Result<Option<Snapshot>, String> {
        if !on {
            return Ok(None);
        }
        let t0 = Instant::now();
        let values = stats(addr)?;
        Ok(Some((values, t0, t0.elapsed())))
    };

    let mut mix = Mix::new(ctx.seed, 0xA11);
    phase(
        "warm",
        addr,
        mix.schedule(high, budget.warm),
        &targets,
        &mut Quiet,
        out,
    )?;
    let before = snapshot(trace)?;
    let lo = phase(
        "low",
        addr,
        mix.schedule(low, budget.low),
        &targets,
        &mut Quiet,
        out,
    )?;
    let hi = phase(
        "high",
        addr,
        mix.schedule(high, budget.high),
        &targets,
        &mut Quiet,
        out,
    )?;
    let mid = snapshot(trace)?;

    // Writes: reads at `low` plus a `/stats` probe every 25 ms while the
    // held-back reports land at even gaps in the first 2/3.
    let mut reqs = mix.schedule(low, budget.write);
    let probes = (budget.write / PROBE_EVERY.as_secs_f64()) as u32;
    reqs.extend((0..probes).map(|k| Req {
        target: STATS,
        class: Class::Stats,
        due: PROBE_EVERY * k,
    }));
    reqs.sort_by_key(|r| r.due);
    let base_raw = stats(addr)?.get("raw").copied().unwrap_or(0.0);
    let gap = budget.write * 2.0 / 3.0 / HELD_BACK as f64;
    let mut writes = Writes {
        land_at: (0..HELD_BACK)
            .map(|k| Duration::from_secs_f64(gap * (k as f64 + 0.25)))
            .collect(),
        files: files.clone(),
        landed: Vec::new(),
        seen: vec![None; HELD_BACK],
        base_raw,
        error: None,
    };
    let write_start = Instant::now();
    let wr = phase("write", addr, reqs, &targets, &mut writes, out)?;
    out.op(writes.error.take());
    let after = snapshot(trace)?;

    // Every landed report must show up; a refresh still running past the
    // phase is timed by polling on.
    let full = base_raw + HELD_BACK as f64;
    let deadline = Instant::now() + TIMEOUT;
    let mut final_stats = stats(addr)?;
    loop {
        let raw = final_stats.get("raw").copied().unwrap_or(0.0);
        for (j, seen) in writes.seen.iter_mut().enumerate().take(writes.landed.len()) {
            if seen.is_none() && raw >= base_raw + (j + 1) as f64 {
                *seen = Some(write_start.elapsed());
            }
        }
        if raw == full || Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
        final_stats = stats(addr)?;
    }
    let cascade =
        ["raw", "valid", "comparable"].map(|k| final_stats.get(k).copied().unwrap_or(0.0));
    let want = [10170.0, 9600.0, 6760.0];
    out.op((cascade != want).then(|| format!("final /stats cascade {cascade:?}, want {want:?}")));
    let refresh: Vec<f64> = writes
        .seen
        .iter()
        .zip(&writes.landed)
        .filter_map(|(seen, landed)| seen.map(|s| (s - *landed).as_secs_f64() * 1e3))
        .collect();

    // The last refresh left an empty memo: warm it again, then measure
    // the saturated throughput (everything offered at once, as SPECpower
    // calibrates its maximum) and search the latency-bounded capacity.
    phase(
        "rewarm",
        addr,
        mix.schedule(high, budget.warm),
        &targets,
        &mut Quiet,
        out,
    )?;
    let mut busy = Duration::ZERO;
    for _ in 0..SATURATION_BURSTS {
        let mut burst = mix.schedule(1e6, 1.0);
        burst.truncate(SATURATION_REQUESTS);
        burst.iter_mut().for_each(|r| r.due = Duration::ZERO);
        let sat = phase("saturate", addr, burst, &targets, &mut Quiet, out)?;
        busy += sat
            .drive
            .records
            .iter()
            .filter_map(|r| r.done)
            .max()
            .unwrap_or_default();
    }
    let saturated = (SATURATION_BURSTS * SATURATION_REQUESTS) as f64 / busy.as_secs_f64().max(1e-9);
    // Capacity: the supported tail stays within the limit and the backlog
    // does not grow (what is left when the last request falls due stays
    // within 100 ms of arrivals).
    let (max_rate, tried) = capacity_search(high, 1.25, budget.trials, |rate| {
        let reqs = mix.schedule(rate, budget.trial);
        let drive = loadgen::drive(addr, crate::THREADS, &reqs, &targets, &mut Quiet)?;
        let lat: Vec<f64> = reqs
            .iter()
            .zip(&drive.records)
            .map(|(q, r)| r.latency_ms(q.due).unwrap_or(f64::INFINITY))
            .collect();
        let ok = drive.records.iter().all(|r| r.status == 200);
        let backlog_ok = drive.backlog_end as f64 <= (rate * 0.1).max(8.0);
        Ok(ok && backlog_ok && tail(&lat, 99.0).value <= LIMIT_MS)
    })?;
    let trials: Vec<String> = tried
        .iter()
        .map(|(r, p)| format!("{r:.0}{}", if *p { "+" } else { "-" }))
        .collect();
    println!(
        "serve_x10  capacity trials (rps, + passed): {}",
        trials.join(" ")
    );
    let rss = crate::sys::vm_hwm_mb(daemon.pid()).ok_or("cannot read daemon VmHWM")?;

    oracle(ctx, &daemon, &corpus, &targets, [&lo, &hi, &wr], out)?;
    daemon.shutdown()?;

    out.metric(
        "max_rate_rps",
        "1/s",
        max_rate,
        &format!(
            "tail <= {LIMIT_MS:.0} ms, {} trials{}",
            tried.len(),
            if tried.iter().all(|t| t.1) {
                ", none failed: a lower bound"
            } else {
                ""
            }
        ),
    );
    out.metric(
        "refresh_p50_ms",
        "ms",
        median(&refresh),
        &format!("landing to /stats, n={}", refresh.len()),
    );
    if trace {
        let (Some(b), Some(m), Some(a)) = (before, mid, after) else {
            return Err("missing /stats snapshots".into());
        };
        return ledger(out, [&lo, &hi, &wr], [&b, &m, &a]);
    }
    out.metric(
        "setup_s",
        "s",
        median(&setup),
        &format!(
            "median of {} daemon starts (fresh cache) until /readyz",
            setup.len()
        ),
    );
    let label = format!("read_p50_ms.high at {high} rps");
    out.metric("op_p50_ms", "ms", hi.p50(), &hi.describe(&label, hi.tail()));
    let t = hi.filtered_tail();
    out.metric(
        "op_tail_ms",
        "ms",
        t.value,
        &hi.describe("filtered_read_p99_ms.high", t),
    );
    out.metric("peak_rss_mb", "MiB", rss, "daemon VmHWM before shutdown");
    out.metric(
        "throughput_per_s",
        "1/s",
        saturated,
        &format!("saturated_rps over {SATURATION_BURSTS} bursts of {SATURATION_REQUESTS}"),
    );
    for (name, phase) in [
        ("read_p99_ms.high", &hi),
        ("read_p99_ms.low", &lo),
        ("read_p99_ms.write", &wr),
    ] {
        out.metric(
            name,
            "ms",
            phase.tail().value,
            &phase.describe("all reads", phase.tail()),
        );
    }
    out.metric(
        "read_p50_ms.low",
        "ms",
        lo.p50(),
        &lo.describe(&format!("at {low} rps"), lo.tail()),
    );
    out.error_rate();
    Ok(())
}

/// Every distinct target served (but `/stats`) must be byte-identical
/// between the benchmark's daemon — warm cache, memo, refreshed — and a
/// cold daemon without a cache over the final corpus.
fn oracle(
    ctx: &Ctx,
    daemon: &Daemon,
    corpus: &Path,
    targets: &[String],
    phases: [&Phase; 3],
    out: &mut Outcome,
) -> Result<(), String> {
    let served: BTreeSet<usize> = phases
        .iter()
        .flat_map(|p| p.reqs.iter().map(|r| r.target))
        .filter(|&t| t != STATS)
        .collect();
    let fetch = |addr: SocketAddr| -> Result<Vec<(u16, Vec<u8>)>, String> {
        let reqs: Vec<Req> = served
            .iter()
            .map(|&target| Req {
                target,
                class: Class::Filtered,
                due: Duration::ZERO,
            })
            .collect();
        let mut bodies = Bodies(vec![(0, Vec::new()); reqs.len()]);
        let drive = loadgen::drive(addr, crate::THREADS, &reqs, targets, &mut bodies)?;
        if drive.timeouts > 0 {
            return Err(format!(
                "oracle fetch timed out on {} targets",
                drive.timeouts
            ));
        }
        Ok(bodies.0)
    };
    let ours = fetch(daemon.addr)?;
    let reference = Daemon::start(&ctx.cli, corpus, None, "reference")?;
    let theirs = fetch(reference.addr)?;
    reference.shutdown()?;
    for ((&t, a), b) in served.iter().zip(&ours).zip(&theirs) {
        let error = if a.0 != 200 || b.0 != 200 {
            Some(format!(
                "{}: status {} vs reference {}",
                targets[t], a.0, b.0
            ))
        } else if a.1 != b.1 {
            Some(format!(
                "{}: body differs from the cold reference daemon",
                targets[t]
            ))
        } else {
            None
        };
        out.op(error);
    }
    println!(
        "oracle: {} distinct targets compared against a cold reference daemon",
        served.len()
    );
    Ok(())
}

/// Keeps every response body, by request index.
struct Bodies(Vec<(u16, Vec<u8>)>);

impl Observer for Bodies {
    fn response(&mut self, index: usize, response: &Response, _now: Duration) {
        self.0[index] = (response.status, response.body.clone());
    }
}

/// A `/stats` reading: parsed values, when it was taken, what it cost.
type Snapshot = (BTreeMap<String, f64>, Instant, Duration);

/// The serve ledger: client-side timings of the low, high and write
/// phases plus `/stats` deltas — reads between `before` and `mid`
/// (low + high), refreshes between `mid` and `after` (write).
fn ledger(
    out: &mut Outcome,
    phases: [&Phase; 3],
    [before, mid, after]: [&Snapshot; 3],
) -> Result<(), String> {
    let delta = |a: &Snapshot, b: &Snapshot, k: &str| {
        b.0.get(k).copied().unwrap_or(0.0) - a.0.get(k).copied().unwrap_or(0.0)
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    for (class, name) in [
        (Class::Unfiltered, "unfiltered"),
        (Class::Filtered, "filtered"),
        (Class::Stats, "stats"),
    ] {
        let ttfb: Vec<f64> = phases
            .iter()
            .flat_map(|p| p.reqs.iter().zip(&p.drive.records))
            .filter(|(q, _)| q.class == class)
            .filter_map(|(_, r)| Some((r.first_byte? - r.sent?).as_secs_f64() * 1e3))
            .collect();
        let t = tail(&ttfb, 99.0);
        out.metric(
            &format!("net.ttfb_p50_ms.{name}"),
            "ms",
            median(&ttfb),
            &format!("n={}", ttfb.len()),
        );
        out.metric(
            &format!("net.ttfb_p99_ms.{name}"),
            "ms",
            t.value,
            &format!("p{:.1}, n={}", t.pct, t.n),
        );
    }
    let transfer: Vec<f64> = phases
        .iter()
        .flat_map(|p| p.drive.records.iter())
        .filter_map(|r| Some((r.done? - r.first_byte?).as_secs_f64() * 1e3))
        .collect();
    let mean = transfer.iter().sum::<f64>() / transfer.len().max(1) as f64;
    out.metric(
        "net.transfer_mean_ms",
        "ms",
        mean,
        "first byte to last, all reads",
    );
    let sum = |f: fn(&Drive) -> u64| phases.iter().map(|p| f(&p.drive)).sum::<u64>() as f64;
    out.metric(
        "net.reconnects",
        "count",
        sum(|d| d.reconnects),
        "rotations at the 256-request cap",
    );
    out.metric(
        "net.resent",
        "count",
        sum(|d| d.resent),
        "requests re-sent after a close",
    );
    out.metric(
        "net.conns_shed",
        "count",
        delta(before, after, "conns_shed"),
        "/stats delta",
    );
    let server_timeouts: f64 = ["timeout_read", "timeout_write", "timeout_deadline"]
        .iter()
        .map(|k| delta(before, after, k))
        .sum();
    out.metric(
        "net.timeouts",
        "count",
        sum(|d| d.timeouts) + server_timeouts,
        "client + /stats deltas",
    );

    let (hits, fills) = (
        delta(before, mid, "serve.memo_hit"),
        delta(before, mid, "serve.memo_fill"),
    );
    out.metric(
        "serve.memo_hit_ratio",
        "ratio",
        ratio(hits, hits + fills),
        &format!("low + high: {hits} hits, {fills} fills"),
    );
    out.metric(
        "serve.memo_evictions",
        "count",
        mid.0.get("memo_evictions").copied().unwrap_or(0.0),
        "after high, current memo",
    );
    let refreshes = delta(mid, after, "serve.refresh_us.count");
    out.metric("serve.refreshes", "count", refreshes, "write phase");
    out.metric(
        "serve.refresh_ms",
        "ms",
        ratio(delta(mid, after, "serve.refresh_us.sum"), refreshes) / 1e3,
        "mean serve.refresh_us, write phase",
    );
    let served_us = delta(before, mid, "serve.request_us.sum");
    out.metric(
        "serve.request_us_mean",
        "us",
        ratio(served_us, delta(before, mid, "serve.request_us.count")),
        "low + high",
    );
    let waits = delta(before, mid, "serve.queue_wait_us.count");
    out.metric(
        "serve.queue_wait_us_mean",
        "us",
        ratio(delta(before, mid, "serve.queue_wait_us.sum"), waits),
        "low + high",
    );

    let late: Vec<f64> = phases
        .iter()
        .flat_map(|p| p.drive.late_ms.iter().copied())
        .collect();
    out.metric(
        "loadgen.late_p99_ms",
        "ms",
        percentile(&late, 99.0),
        &format!("n={}", late.len()),
    );
    let backlog = phases
        .iter()
        .map(|p| p.drive.backlog_max)
        .max()
        .unwrap_or(0);
    out.metric("loadgen.backlog_max", "count", backlog as f64, "");
    // Client-seen latency the daemon's own request timer does not cover:
    // queueing before a worker, the network and the client itself.
    let client_us: f64 = phases[..2]
        .iter()
        .flat_map(|p| p.latency.iter())
        .sum::<f64>()
        * 1e3;
    out.metric(
        "trace.untraced_frac",
        "ratio",
        1.0 - ratio(served_us, client_us),
        "low + high latency outside serve.request_us",
    );
    let wall = after.1.duration_since(before.1).as_secs_f64();
    let cost: f64 = [before, mid, after].iter().map(|s| s.2.as_secs_f64()).sum();
    out.metric(
        "trace.overhead_frac",
        "ratio",
        cost / wall,
        "/stats snapshot time vs traced wall",
    );
    out.metric(
        "trace.replays",
        "count",
        phases.len() as f64,
        "phases between the snapshots",
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targets_are_fixed_unique_and_endpoint_stratified() {
        let a = targets();
        assert_eq!(a, targets());
        assert_eq!(a.len(), 13 + FILTERED_KEYS);
        assert_eq!(a.iter().collect::<BTreeSet<_>>().len(), a.len());
        for (rank, key) in a[13..].iter().enumerate() {
            assert!(key.starts_with(&format!("{}?", a[rank % 12])), "{key}");
            if key.contains("agg=year") {
                assert!(["/data/2?", "/data/3?", "/data/5?", "/data/6?"]
                    .iter()
                    .any(|p| key.starts_with(p)));
            }
        }
    }

    #[test]
    fn mix_shares_and_zipf_skew() {
        let reqs = Mix::new(9, 1).schedule(2000.0, 10.0);
        let n = reqs.len() as f64;
        let share = |c: Class| reqs.iter().filter(|r| r.class == c).count() as f64 / n;
        assert!((share(Class::Unfiltered) - 0.50).abs() < 0.02);
        assert!((share(Class::Filtered) - 0.45).abs() < 0.02);
        assert!((share(Class::Stats) - 0.05).abs() < 0.01);
        let top = reqs.iter().filter(|r| r.target == STATS + 1).count();
        let tenth = reqs.iter().filter(|r| r.target == STATS + 10).count();
        assert!(top > 5 * tenth, "rank 1 {top} vs rank 10 {tenth}");
    }

    #[test]
    fn parses_stats_lines_and_histograms() {
        let s = parse_stats("generation 3\nraw 10170\ncounters:\n  serve.memo_hit  12\nhistograms (us):\n  serve.refresh_us     count=2 sum=800 mean=400.0\n");
        assert_eq!(s["generation"], 3.0);
        assert_eq!(s["raw"], 10170.0);
        assert_eq!(s["serve.memo_hit"], 12.0);
        assert_eq!(
            (s["serve.refresh_us.count"], s["serve.refresh_us.sum"]),
            (2.0, 800.0)
        );
    }
}
