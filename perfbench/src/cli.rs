//! Running the shipped `spec-trends` binary: every invocation gets
//! `--threads`, a private `TMPDIR` inside the work directory and tracing
//! switched off, and is reaped with its peak RSS.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::sys;

/// One finished invocation.
#[derive(Debug)]
pub struct Step {
    /// Captured standard output.
    pub stdout: String,
    /// Captured standard error.
    pub stderr: String,
    /// Wall time from spawn to reap.
    pub wall: Duration,
    /// Peak RSS of the process, MiB.
    pub maxrss_mb: f64,
}

/// The binary under test plus the settings every invocation shares.
#[derive(Clone, Debug)]
pub struct Cli {
    /// Path of `spec-trends`.
    pub bin: PathBuf,
    /// Work directory; captured output and `TMPDIR` live beneath it.
    pub work: PathBuf,
    /// `--threads` passed to every invocation.
    pub threads: usize,
}

impl Cli {
    fn command(&self, args: &[&str]) -> Command {
        let mut cmd = Command::new(&self.bin);
        cmd.args(args)
            .arg("--threads")
            .arg(self.threads.to_string())
            .env("TMPDIR", self.work.join("tmp"))
            .env_remove("SPEC_TRENDS_TRACE")
            .env_remove("SPEC_TRENDS_THREADS")
            .stdin(Stdio::null());
        cmd
    }

    /// Run to completion; a non-zero exit is an error carrying stderr.
    pub fn run(&self, args: &[&str]) -> Result<Step, String> {
        std::fs::create_dir_all(self.work.join("tmp")).map_err(|e| e.to_string())?;
        let out_path = self.work.join("step.stdout");
        let err_path = self.work.join("step.stderr");
        let out = File::create(&out_path).map_err(|e| e.to_string())?;
        let err = File::create(&err_path).map_err(|e| e.to_string())?;
        let start = Instant::now();
        let child = self
            .command(args)
            .stdout(out)
            .stderr(err)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", self.bin.display()))?;
        let reaped = sys::reap(child.id()).map_err(|e| e.to_string())?;
        let wall = start.elapsed();
        let stdout = std::fs::read_to_string(&out_path).map_err(|e| e.to_string())?;
        let stderr = std::fs::read_to_string(&err_path).map_err(|e| e.to_string())?;
        if reaped.code != Some(0) {
            return Err(format!(
                "`spec-trends {}` exited with {:?}: {}",
                args.join(" "),
                reaped.code,
                stderr.trim()
            ));
        }
        Ok(Step {
            stdout,
            stderr,
            wall,
            maxrss_mb: reaped.maxrss_kb as f64 / 1024.0,
        })
    }

    /// Start a long-running invocation (the daemon) with piped stdout.
    pub fn spawn(&self, args: &[&str], stderr_to: &Path) -> Result<Child, String> {
        std::fs::create_dir_all(self.work.join("tmp")).map_err(|e| e.to_string())?;
        let err = File::create(stderr_to).map_err(|e| e.to_string())?;
        self.command(args)
            .stdout(Stdio::piped())
            .stderr(err)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", self.bin.display()))
    }
}

/// A path as a command-line argument.
pub fn s(p: &Path) -> &str {
    p.to_str().unwrap_or_default()
}

/// Byte-compare every file of `want` against the same name in `got`;
/// returns one line per mismatch (missing, extra or differing files).
pub fn diff_dirs(want: &Path, got: &Path) -> Vec<String> {
    let names = |dir: &Path| -> Vec<String> {
        let mut v: Vec<String> = std::fs::read_dir(dir)
            .map(|it| {
                it.flatten()
                    .filter(|e| e.path().is_file())
                    .map(|e| e.file_name().to_string_lossy().into_owned())
                    .collect()
            })
            .unwrap_or_default();
        v.sort();
        v
    };
    let (a, b) = (names(want), names(got));
    let mut out = Vec::new();
    if a.is_empty() {
        out.push(format!("{} holds no files", want.display()));
    }
    if a != b {
        out.push(format!("file sets differ: {a:?} vs {b:?}"));
    }
    for name in a.iter().filter(|n| b.contains(n)) {
        if std::fs::read(want.join(name)).ok() != std::fs::read(got.join(name)).ok() {
            out.push(format!("{name} differs"));
        }
    }
    out
}
