//! Open-loop load generator: seeded arrivals, pipelined over a fixed
//! number of keep-alive connections, driven by one thread.
//!
//! Every request is timed from its *due* time, so a stall also charges
//! the requests queued behind it. Connections rotate at the daemon's
//! per-connection request cap; requests cut off by a close are re-sent on
//! the next connection (keeping their due time) and counted.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use crate::http::{Parser, Response};
use crate::sys::{self, PollFd, POLLIN, POLLOUT};

/// Requests the daemon serves per connection before closing it.
pub const MAX_PER_CONN: usize = 256;
/// Longest a request may stay unanswered past the last due time.
pub const DRAIN: Duration = Duration::from_secs(5);
/// Longest the loop sleeps, so tick callbacks stay punctual.
const MAX_SLEEP: Duration = Duration::from_millis(5);

/// Traffic class of a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// One of the 12 unfiltered `/figures/N` and `/data/N` targets.
    Unfiltered,
    /// A filtered query.
    Filtered,
    /// `/stats`.
    Stats,
}

/// One scheduled request.
#[derive(Clone, Debug)]
pub struct Req {
    /// Index into the target table.
    pub target: usize,
    /// Traffic class.
    pub class: Class,
    /// When it is due, from the start of the drive.
    pub due: Duration,
}

/// What happened to one request.
#[derive(Clone, Debug, Default)]
pub struct Record {
    /// Written to a connection (the last time, if re-sent).
    pub sent: Option<Duration>,
    /// First response byte received.
    pub first_byte: Option<Duration>,
    /// Response complete.
    pub done: Option<Duration>,
    /// Status code.
    pub status: u16,
    /// Body length.
    pub bytes: usize,
}

impl Record {
    /// Latency from the due time, ms.
    pub fn latency_ms(&self, due: Duration) -> Option<f64> {
        self.done.map(|d| d.saturating_sub(due).as_secs_f64() * 1e3)
    }
}

/// Outcome of one drive.
#[derive(Debug, Default)]
pub struct Drive {
    /// One record per scheduled request, same order.
    pub records: Vec<Record>,
    /// Connections opened after the first ones.
    pub reconnects: u64,
    /// Requests re-sent after a close cut them off.
    pub resent: u64,
    /// How late the generator released each request, ms.
    pub late_ms: Vec<f64>,
    /// Most requests due but not yet answered at any moment.
    pub backlog_max: usize,
    /// Requests unanswered when the last one fell due.
    pub backlog_end: usize,
    /// Requests still unanswered at the drain deadline.
    pub timeouts: u64,
    /// Responses that broke the protocol (e.g. cut short).
    pub protocol_errors: u64,
}

struct Conn {
    stream: TcpStream,
    parser: Parser,
    inflight: VecDeque<usize>,
    sent: usize,
    out: Vec<u8>,
    closing: bool,
    dead: bool,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            parser: Parser::default(),
            inflight: VecDeque::new(),
            sent: 0,
            out: Vec::new(),
            closing: false,
            dead: false,
        })
    }

    fn accepts(&self) -> bool {
        !self.dead && !self.closing && self.sent < MAX_PER_CONN
    }

    fn flush(&mut self) {
        while !self.out.is_empty() {
            match self.stream.write(&self.out) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }
}

/// Callbacks a drive offers its caller: `tick` runs every loop turn with
/// the elapsed time, `response` on every completed response.
pub trait Observer {
    /// Called every loop turn.
    fn tick(&mut self, _now: Duration) {}
    /// Called for each completed response of request `index`.
    fn response(&mut self, _index: usize, _response: &Response, _now: Duration) {}
}

/// An observer that does nothing.
pub struct Quiet;
impl Observer for Quiet {}

/// Send `reqs` (sorted by due time) to `addr` over `conns` connections.
pub fn drive(
    addr: SocketAddr,
    conns: usize,
    reqs: &[Req],
    targets: &[String],
    observer: &mut dyn Observer,
) -> Result<Drive, String> {
    let mut out = Drive {
        records: vec![Record::default(); reqs.len()],
        ..Drive::default()
    };
    let mut slots: Vec<Option<Conn>> = (0..conns).map(|_| None).collect();
    let mut opened = 0u64;
    let mut pending: VecDeque<usize> = VecDeque::new();
    let (mut next, mut completed) = (0usize, 0usize);
    let mut all_due = false;
    let last_due = reqs.last().map(|r| r.due).unwrap_or_default();
    let mut buf = vec![0u8; 64 * 1024];
    let t0 = Instant::now();
    loop {
        let now = t0.elapsed();
        observer.tick(now);
        while next < reqs.len() && reqs[next].due <= now {
            out.late_ms.push((now - reqs[next].due).as_secs_f64() * 1e3);
            pending.push_back(next);
            next += 1;
        }
        let backlog = next - completed;
        out.backlog_max = out.backlog_max.max(backlog);
        if next == reqs.len() && !all_due {
            all_due = true;
            out.backlog_end = backlog;
        }

        // Retire spent connections; re-queue what a close cut off.
        for slot in slots.iter_mut() {
            let spent = slot.as_ref().is_some_and(|c| {
                c.dead || (!c.accepts() && c.inflight.is_empty() && c.out.is_empty())
            });
            if spent {
                let c = slot.take().expect("checked above");
                for &i in c.inflight.iter().rev() {
                    out.resent += 1;
                    pending.push_front(i);
                }
            }
            if slot.is_none() && (!pending.is_empty() || next < reqs.len()) {
                *slot = Some(Conn::open(addr)?);
                opened += 1;
            }
        }

        // Dispatch due requests to the least-loaded open connection.
        while let Some(&i) = pending.front() {
            let Some(c) = slots
                .iter_mut()
                .flatten()
                .filter(|c| c.accepts())
                .min_by_key(|c| c.inflight.len())
            else {
                break;
            };
            pending.pop_front();
            c.out.extend_from_slice(
                format!(
                    "GET {} HTTP/1.1\r\nHost: bench\r\n\r\n",
                    targets[reqs[i].target]
                )
                .as_bytes(),
            );
            c.inflight.push_back(i);
            c.sent += 1;
            out.records[i].sent = Some(t0.elapsed());
        }
        for c in slots.iter_mut().flatten() {
            c.flush();
        }

        if next == reqs.len() && completed == reqs.len() {
            break;
        }
        if now > last_due + DRAIN {
            out.timeouts = (reqs.len() - completed) as u64;
            break;
        }

        let wait = if next < reqs.len() {
            reqs[next].due.saturating_sub(t0.elapsed())
        } else {
            MAX_SLEEP
        };
        let mut fds: Vec<PollFd> = slots
            .iter()
            .flatten()
            .map(|c| PollFd {
                fd: c.stream.as_raw_fd(),
                events: POLLIN | if c.out.is_empty() { 0 } else { POLLOUT },
                revents: 0,
            })
            .collect();
        sys::poll(&mut fds, wait.min(MAX_SLEEP)).map_err(|e| format!("poll: {e}"))?;

        for c in slots.iter_mut().flatten() {
            loop {
                match c.stream.read(&mut buf) {
                    Ok(0) => {
                        c.dead = true;
                        break;
                    }
                    Ok(n) => {
                        let at = t0.elapsed();
                        if c.parser.pending() == 0 {
                            if let Some(&front) = c.inflight.front() {
                                out.records[front].first_byte.get_or_insert(at);
                            }
                        }
                        c.parser.feed(&buf[..n]);
                        loop {
                            match c.parser.next() {
                                Ok(Some(response)) => {
                                    let Some(i) = c.inflight.pop_front() else {
                                        out.protocol_errors += 1;
                                        c.dead = true;
                                        break;
                                    };
                                    let r = &mut out.records[i];
                                    r.first_byte.get_or_insert(at);
                                    r.done = Some(at);
                                    r.status = response.status;
                                    r.bytes = response.body.len();
                                    completed += 1;
                                    if response.close {
                                        c.closing = true;
                                    }
                                    observer.response(i, &response, at);
                                    if c.parser.pending() > 0 {
                                        if let Some(&front) = c.inflight.front() {
                                            out.records[front].first_byte.get_or_insert(at);
                                        }
                                    }
                                }
                                Ok(None) => break,
                                Err(_) => {
                                    out.protocol_errors += 1;
                                    c.dead = true;
                                    break;
                                }
                            }
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        c.dead = true;
                        break;
                    }
                }
                if c.dead {
                    break;
                }
            }
            if c.dead && c.parser.pending() > 0 {
                // Bytes of a response the close cut short: it is re-sent.
                c.parser = Parser::default();
            }
        }
    }
    out.reconnects = opened.saturating_sub(conns as u64);
    Ok(out)
}

/// SplitMix64: a small, seedable, portable generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// Seeded generator; `stream` separates independent sequences.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// Poisson arrivals at `rate` per second for `seconds`, starting at `offset`.
pub fn arrivals(rng: &mut Rng, rate: f64, seconds: f64, offset: Duration) -> Vec<Duration> {
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(offset + Duration::from_secs_f64(t));
    }
}

/// Highest rate that passes `trial`, searched in `steps` trials: grow by
/// `factor` from `start` until a trial fails (or shrink until one passes),
/// then bisect the bracket geometrically. Returns the rate and every
/// `(rate, passed)` tried.
pub fn capacity_search(
    start: f64,
    factor: f64,
    steps: usize,
    mut trial: impl FnMut(f64) -> Result<bool, String>,
) -> Result<(f64, Vec<(f64, bool)>), String> {
    let mut tried = Vec::new();
    let (mut lo, mut hi): (Option<f64>, Option<f64>) = (None, None);
    let mut rate = start;
    for _ in 0..steps {
        let pass = trial(rate)?;
        tried.push((rate, pass));
        if pass {
            lo = Some(lo.map_or(rate, |l: f64| l.max(rate)));
        } else {
            hi = Some(hi.map_or(rate, |h: f64| h.min(rate)));
        }
        rate = match (lo, hi) {
            (Some(l), Some(h)) => (l * h).sqrt(),
            (Some(l), None) => l * factor,
            (None, Some(h)) => h / factor,
            (None, None) => unreachable!("a trial ran"),
        };
    }
    Ok((lo.unwrap_or(0.0), tried))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A keep-alive server that answers `cap` requests per connection,
    /// closing after the last, and drops whatever else was pipelined.
    fn capped_server(cap: usize) -> (SocketAddr, std::thread::JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut connections = 0;
            for stream in listener.incoming() {
                let mut stream = stream.unwrap();
                connections += 1;
                let mut seen = Vec::new();
                let mut served = 0;
                let mut buf = [0u8; 4096];
                let mut stop = false;
                while served < cap {
                    let n = stream.read(&mut buf).unwrap_or(0);
                    if n == 0 {
                        break;
                    }
                    seen.extend_from_slice(&buf[..n]);
                    while let Some(end) = seen.windows(4).position(|w| w == b"\r\n\r\n") {
                        let head = String::from_utf8_lossy(&seen[..end]).to_string();
                        seen.drain(..end + 4);
                        served += 1;
                        if head.contains("/stop") {
                            stop = true;
                        }
                        let last = served == cap;
                        let conn = if last { "close" } else { "keep-alive" };
                        let body = head.split_whitespace().nth(1).unwrap_or("").to_string();
                        let resp = format!(
                            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: {conn}\r\n\r\n{body}",
                            body.len()
                        );
                        stream.write_all(resp.as_bytes()).unwrap();
                        if last {
                            break;
                        }
                    }
                }
                drop(stream);
                if stop {
                    return connections;
                }
            }
            connections
        });
        (addr, handle)
    }

    #[test]
    fn reconnects_at_the_cap_and_keeps_due_times() {
        // A server that closes after 3 requests, while the client's own
        // rotation cap (256) is far away: the close cuts off pipelined
        // requests, which must be re-sent, answered and timed from due.
        let (addr, server) = capped_server(3);
        let targets: Vec<String> = (0..10)
            .map(|i| format!("/t{i}"))
            .chain(["/stop".to_string()])
            .collect();
        let reqs: Vec<Req> = (0..targets.len())
            .map(|i| Req {
                target: i,
                class: Class::Unfiltered,
                due: Duration::from_millis(2 * i as u64),
            })
            .collect();
        let run = drive(addr, 1, &reqs, &targets, &mut Quiet).unwrap();
        assert_eq!(run.timeouts, 0);
        for (i, r) in run.records.iter().enumerate() {
            assert_eq!(r.status, 200, "request {i}");
            assert_eq!(r.bytes, targets[i].len(), "request {i} got another's body");
            let (sent, done) = (r.sent.unwrap(), r.done.unwrap());
            assert!(sent >= reqs[i].due && done >= sent);
            assert!(r.latency_ms(reqs[i].due).unwrap() >= (done - sent).as_secs_f64() * 1e3 - 1e-9);
        }
        // 11 requests at 3 per connection: at least 4 connections.
        assert!(run.reconnects >= 3, "reconnects {}", run.reconnects);
        assert_eq!(run.late_ms.len(), reqs.len());
        let served = server.join().unwrap();
        assert_eq!(served as u64, run.reconnects + 1);
    }

    #[test]
    fn latency_counts_from_due_time_not_send_time() {
        let r = Record {
            sent: Some(Duration::from_millis(30)),
            done: Some(Duration::from_millis(31)),
            ..Record::default()
        };
        assert_eq!(r.latency_ms(Duration::from_millis(10)), Some(21.0));
    }

    #[test]
    fn capacity_search_is_monotone_and_brackets_capacity() {
        let mut previous = 0.0;
        for c in (1..200).map(|i| 40.0 * i as f64) {
            let (found, tried) = capacity_search(1000.0, 1.25, 8, |r| Ok(r <= c)).unwrap();
            assert!(found <= c, "capacity {c}: reported {found}");
            assert!(
                found >= previous,
                "not monotone: {c} gave {found} after {previous}"
            );
            // Every failing trial lies above the reported rate.
            assert!(tried.iter().all(|&(r, pass)| pass || r > found));
            if tried.iter().any(|&(_, pass)| !pass) && found > 0.0 {
                let above = tried
                    .iter()
                    .filter(|t| !t.1)
                    .map(|t| t.0)
                    .fold(f64::MAX, f64::min);
                assert!(
                    above / found <= 1.25 + 1e-9,
                    "bracket too wide at {c}: {found}..{above}"
                );
            }
            previous = found;
        }
    }

    #[test]
    fn arrivals_are_seeded_and_near_the_rate() {
        let a = arrivals(&mut Rng::new(7, 1), 500.0, 4.0, Duration::ZERO);
        let b = arrivals(&mut Rng::new(7, 1), 500.0, 4.0, Duration::ZERO);
        assert_eq!(a, b);
        assert!((a.len() as f64 - 2000.0).abs() < 200.0, "{}", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }
}
