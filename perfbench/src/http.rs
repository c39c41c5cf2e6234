//! Just enough HTTP/1.1 for the benchmark's client side: an incremental
//! parser for pipelined responses and a one-shot blocking GET.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One parsed response.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Body bytes (exactly `Content-Length` of them).
    pub body: Vec<u8>,
    /// The server announced `Connection: close`.
    pub close: bool,
}

/// Splits a byte stream into responses. Every response must carry a
/// `Content-Length`; one that does not is a protocol error.
#[derive(Debug, Default)]
pub struct Parser {
    buf: Vec<u8>,
}

impl Parser {
    /// Append received bytes.
    pub fn feed(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Bytes of the next, not yet complete response already received.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Take the next complete response, if all of it has arrived.
    pub fn next(&mut self) -> Result<Option<Response>, String> {
        let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| "non-UTF-8 head")?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| format!("bad status line {status_line:?}"))?;
        let (mut length, mut close) = (None, false);
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let (name, value) = (name.trim().to_ascii_lowercase(), value.trim());
            if name == "content-length" {
                length = value.parse::<usize>().ok();
            } else if name == "connection" {
                close = value.eq_ignore_ascii_case("close");
            }
        }
        let length = length.ok_or("response without Content-Length")?;
        let start = head_end + 4;
        if self.buf.len() < start + length {
            return Ok(None);
        }
        let body = self.buf[start..start + length].to_vec();
        self.buf.drain(..start + length);
        Ok(Some(Response {
            status,
            body,
            close,
        }))
    }
}

/// One-shot `GET` on a fresh connection (`Connection: close`).
pub fn get(addr: SocketAddr, target: &str, timeout: Duration) -> Result<Response, String> {
    let e = |e: std::io::Error| format!("GET {target}: {e}");
    let mut stream = TcpStream::connect_timeout(&addr, timeout).map_err(e)?;
    stream.set_read_timeout(Some(timeout)).map_err(e)?;
    stream
        .write_all(
            format!("GET {target} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(e)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(e)?;
    let mut parser = Parser::default();
    parser.feed(&raw);
    let response = parser
        .next()?
        .ok_or_else(|| format!("GET {target}: truncated response"))?;
    if parser.pending() != 0 {
        return Err(format!("GET {target}: bytes past Content-Length"));
    }
    Ok(response)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pipelined_responses_across_feeds() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabcHTTP/1.1 503 Busy\r\ncontent-length: 0\r\nConnection: close\r\n\r\n";
        let mut p = Parser::default();
        p.feed(&wire[..20]);
        assert!(p.next().unwrap().is_none());
        p.feed(&wire[20..]);
        let a = p.next().unwrap().unwrap();
        assert_eq!(
            (a.status, a.body.as_slice(), a.close),
            (200, &b"abc"[..], false)
        );
        let b = p.next().unwrap().unwrap();
        assert_eq!((b.status, b.body.len(), b.close), (503, 0, true));
        assert!(p.next().unwrap().is_none());
        assert_eq!(p.pending(), 0);
    }

    #[test]
    fn missing_content_length_is_an_error() {
        let mut p = Parser::default();
        p.feed(b"HTTP/1.1 200 OK\r\n\r\nabc");
        assert!(p.next().is_err());
    }
}
