//! The Linux calls std does not expose: `wait4` (a child's exit status
//! together with its peak RSS), `ppoll` (one thread waiting on several
//! sockets with a sub-millisecond timeout) and `sync`. Plus `/proc`
//! readers.

use std::io;
use std::os::raw::{c_int, c_long, c_short};
use std::time::Duration;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    rest: [c_long; 13],
}

#[repr(C)]
struct Timespec {
    sec: c_long,
    nsec: c_long,
}

/// `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct PollFd {
    /// File descriptor.
    pub fd: c_int,
    /// Requested events.
    pub events: c_short,
    /// Returned events.
    pub revents: c_short,
}

/// Readable.
pub const POLLIN: c_short = 0x1;
/// Writable.
pub const POLLOUT: c_short = 0x4;

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> c_int;
    fn sync();
}

/// Write back every dirty page, so a timed set-up does not pay for the
/// previous run's writes.
pub fn flush_disks() {
    // SAFETY: `sync` takes no arguments and cannot fail.
    unsafe { sync() }
}

/// Exit of a reaped child.
#[derive(Clone, Copy, Debug)]
pub struct Reaped {
    /// Exit code, or `None` when killed by a signal.
    pub code: Option<i32>,
    /// Peak resident set size (`ru_maxrss`), KiB.
    pub maxrss_kb: u64,
}

/// Block until child `pid` exits and reap it.
pub fn reap(pid: u32) -> io::Result<Reaped> {
    let mut status: c_int = 0;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: both out-pointers are valid for the duration of the call.
        let rc = unsafe { wait4(pid as c_int, &mut status, 0, &mut usage) };
        if rc == pid as c_int {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let code = if status & 0x7f == 0 {
        Some((status >> 8) & 0xff)
    } else {
        None
    };
    Ok(Reaped {
        code,
        maxrss_kb: usage.maxrss.max(0) as u64,
    })
}

/// Wait up to `timeout` for events on `fds`; returns how many are ready.
pub fn poll(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let ts = Timespec {
        sec: timeout.as_secs() as c_long,
        nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `fds` is a valid slice of `struct pollfd`, `ts` outlives the call.
    let rc = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(err);
    }
    Ok(rc as usize)
}

/// `VmHWM` of a live process, MiB.
pub fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The 1-minute load average.
pub fn loadavg_1m() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}
